// Four-level x86-64-style page tables (PML4 → PDPT → PD → PT) with 4 KiB and
// 2 MiB leaf pages, and a software walker that reports exactly what the
// hardware page-miss handler would observe: how many levels were fetched and
// whether the walk terminated in a present leaf, a non-present entry, or a
// reserved-bit violation (the FLARE dummy-mapping model, DESIGN.md §1.4).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

namespace whisper::mem {

/// Leaf-entry permission / attribute bits.
struct PteFlags {
  bool present = true;
  bool writable = true;
  bool user = false;      // accessible from CPL3
  bool global = false;    // survives CR3 switch (kernel text)
  bool reserved = false;  // reserved-bit set: walk faults, no TLB fill
  bool no_exec = false;

  friend bool operator==(const PteFlags&, const PteFlags&) = default;
};

enum class PageSize : std::uint8_t { k4K, k2M };

[[nodiscard]] constexpr std::uint64_t bytes(PageSize s) noexcept {
  return s == PageSize::k4K ? (1ull << 12) : (1ull << 21);
}

enum class WalkStatus : std::uint8_t {
  Ok,           // present leaf found
  NotPresent,   // some level's entry is non-present
  ReservedBit,  // leaf present but reserved bit set (FLARE dummy)
};

struct WalkResult {
  WalkStatus status = WalkStatus::NotPresent;
  std::uint64_t paddr = 0;    // translated physical address (when Ok)
  PteFlags flags;             // leaf flags (when Ok or ReservedBit)
  PageSize page_size = PageSize::k4K;
  int levels_fetched = 0;     // table levels the walker had to read (1..4)
  int miss_level = 0;         // level at which NotPresent terminated (1..4)
};

/// A single address space's page tables. Entries are stored one per run: a
/// map() call becomes a single entry covering its whole range, so the cost of
/// building an address space follows the number of map() calls, not the
/// number of leaf pages. Every query still answers per leaf page.
class PageTable {
 public:
  /// Map [vaddr, vaddr+len) to [paddr, ...) with the given flags and page
  /// size. vaddr/paddr/len must be page-aligned for the chosen size.
  /// Pages of the same size already mapped in the range are replaced.
  /// Throws std::invalid_argument, leaving the table unchanged, on
  /// misalignment or on any overlap with a mapping of the other page size.
  void map(std::uint64_t vaddr, std::uint64_t paddr, std::uint64_t len,
           PteFlags flags, PageSize size = PageSize::k4K);

  /// Remove every leaf page that overlaps [vaddr, vaddr+len), splitting a
  /// run that extends past either end. Silently ignores holes.
  void unmap(std::uint64_t vaddr, std::uint64_t len);

  /// Walk the tables for `vaddr`. `psc_hits` is the number of upper levels
  /// whose entries were served by the paging-structure caches (0..3) — the
  /// walker then fetches only the remaining levels.
  [[nodiscard]] WalkResult walk(std::uint64_t vaddr, int psc_hits = 0) const;

  /// Leaf lookup without timing bookkeeping (for OS-level assertions).
  [[nodiscard]] std::optional<WalkResult> lookup(std::uint64_t vaddr) const;

  /// Visit every leaf page as (vaddr, paddr, flags, size). Order: ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [v, e] : entries_)
      for (std::uint64_t off = 0; off < e.len; off += bytes(e.size))
        fn(v + off, e.paddr + off, e.flags, e.size);
  }

 private:
  /// A run of `len` bytes of same-size, same-flags leaf pages, mapped to
  /// physically contiguous frames starting at `paddr`.
  struct Entry {
    std::uint64_t paddr = 0;
    PteFlags flags;
    PageSize size = PageSize::k4K;
    std::uint64_t len = 0;
  };

  /// Find the run covering vaddr, if any.
  [[nodiscard]] const Entry* find(std::uint64_t vaddr,
                                  std::uint64_t* entry_base) const;
  /// The run covering vaddr, or else the first run above it.
  [[nodiscard]] std::map<std::uint64_t, Entry>::const_iterator run_from(
      std::uint64_t vaddr) const;
  /// Remove every leaf page overlapping [vaddr, last], keeping the whole
  /// pages of a run that lie outside it.
  void carve(std::uint64_t vaddr, std::uint64_t last);

  // Keyed by the virtual base of each run; runs never overlap.
  std::map<std::uint64_t, Entry> entries_;
};

/// Which paging level (1=PML4 .. 4=PT) first diverges between two virtual
/// addresses — used by the paging-structure cache model.
[[nodiscard]] int first_divergent_level(std::uint64_t a,
                                        std::uint64_t b) noexcept;

}  // namespace whisper::mem

// Set-associative translation lookaside buffers with LRU replacement.
//
// The crucial policy bit for the paper is *when* the TLB is filled: on the
// modelled Intel parts a permission-faulting access to a *mapped* page still
// installs a translation (section 4.5 / Table 3); the Zen 3 model does not.
// That policy lives in MemorySystem; this class is a plain cache of
// translations.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mem/page_table.h"

namespace whisper::mem {

struct TlbEntry {
  std::uint64_t vpn = 0;    // virtual page number (vaddr >> page shift)
  std::uint64_t pfn = 0;    // physical frame number
  PteFlags flags;
  PageSize size = PageSize::k4K;
  bool global = false;
};

class Tlb {
 public:
  /// `sets` must be a power of two; `ways` >= 1.
  Tlb(std::size_t sets, std::size_t ways);

  /// Look up a translation; updates LRU on hit.
  [[nodiscard]] std::optional<TlbEntry> lookup(std::uint64_t vaddr);

  /// Hot-path variant of lookup(): same LRU update, but returns a pointer
  /// into the TLB instead of copying the entry (nullptr on miss). The
  /// pointer is invalidated by any subsequent insert/flush/reset.
  [[nodiscard]] const TlbEntry* lookup_ref(std::uint64_t vaddr);

  /// Probe without disturbing LRU (for tests / PMU introspection).
  [[nodiscard]] bool contains(std::uint64_t vaddr) const;

  void insert(std::uint64_t vaddr, std::uint64_t paddr, PteFlags flags,
              PageSize size);

  /// Invalidate the entry covering vaddr (INVLPG).
  void invalidate_page(std::uint64_t vaddr);
  /// Flush everything (MOV CR3 with non-PCID semantics) in O(1)…
  void flush_all();
  /// …or everything except global entries (kernel text under CR3 switch).
  void flush_non_global();

  /// Capture the current contents as the baseline reset() restores; begins
  /// per-set dirty tracking (same scheme as Cache::snapshot).
  void snapshot();
  /// Invalidate dirty sets, reapply the baseline ways, restore the LRU
  /// clock. Throws std::logic_error without a snapshot.
  void reset();
  [[nodiscard]] bool snapshotted() const noexcept { return has_baseline_; }
  [[nodiscard]] std::size_t dirty_sets() const noexcept {
    return dirty_sets_.size();
  }

  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::size_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t occupancy() const noexcept;

 private:
  // A way is valid while its stamp equals the TLB's generation: flush_all()
  // bumps the generation instead of touching every way. Generations only
  // grow, so a stale stamp can never become valid again.
  struct Way {
    std::uint64_t stamp = 0;  // 0 = never valid
    TlbEntry entry;
    std::uint64_t lru = 0;  // larger = more recently used
  };

  [[nodiscard]] bool valid(const Way& way) const noexcept {
    return way.stamp == generation_;
  }

  [[nodiscard]] std::size_t set_index(std::uint64_t vpn) const noexcept {
    return static_cast<std::size_t>(vpn) & (sets_ - 1);
  }

  // Returns the way holding vaddr's translation, or nullptr.
  [[nodiscard]] Way* find(std::uint64_t vaddr);
  [[nodiscard]] const Way* find(std::uint64_t vaddr) const;

  void touch_set(std::size_t set);

  std::size_t sets_;
  std::size_t ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t generation_ = 1;
  std::vector<Way> ways_storage_;  // sets_ * ways_, row-major by set

  // Snapshot/reset state (see Cache): baseline ways reapplied wholesale on
  // reset, re-stamped with the current generation, heal in-place mutations
  // and flushes; only new-way installs mark their set.
  bool has_baseline_ = false;
  std::uint64_t baseline_tick_ = 0;
  std::vector<std::pair<std::uint32_t, Way>> baseline_ways_;
  std::uint64_t epoch_ = 1;
  std::vector<std::uint64_t> set_epoch_;
  std::vector<std::uint32_t> dirty_sets_;
};

}  // namespace whisper::mem

#include "mem/page_table.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace whisper::mem {

namespace {

constexpr std::uint64_t level_shift(int level) noexcept {
  // level 1 = PML4 (bits 47:39) ... level 4 = PT (bits 20:12)
  return 12u + 9u * static_cast<std::uint64_t>(4 - level);
}

}  // namespace

int first_divergent_level(std::uint64_t a, std::uint64_t b) noexcept {
  for (int level = 1; level <= 4; ++level) {
    const std::uint64_t shift = level_shift(level);
    if ((a >> shift) != (b >> shift)) return level;
  }
  return 5;  // same 4 KiB page
}

void PageTable::map(std::uint64_t vaddr, std::uint64_t paddr,
                    std::uint64_t len, PteFlags flags, PageSize size) {
  const std::uint64_t page = bytes(size);
  if (vaddr % page || paddr % page || len % page || len == 0) {
    std::ostringstream msg;
    msg << "PageTable::map: misaligned mapping vaddr=0x" << std::hex << vaddr
        << " paddr=0x" << paddr << " len=0x" << len;
    throw std::invalid_argument(msg.str());
  }
  const std::uint64_t last = vaddr + (len - 1);
  for (auto it = run_from(vaddr); it != entries_.end() && it->first <= last;
       ++it) {
    if (it->second.size != size)
      throw std::invalid_argument(
          "PageTable::map: overlapping mapping with different page size");
  }
  carve(vaddr, last);
  entries_.emplace(vaddr, Entry{paddr, flags, size, len});
}

void PageTable::unmap(std::uint64_t vaddr, std::uint64_t len) {
  if (len != 0) carve(vaddr, vaddr + (len - 1));
}

std::map<std::uint64_t, PageTable::Entry>::const_iterator PageTable::run_from(
    std::uint64_t vaddr) const {
  auto it = entries_.upper_bound(vaddr);
  if (it != entries_.begin()) {
    const auto prev = std::prev(it);
    if (vaddr - prev->first < prev->second.len) return prev;
  }
  return it;
}

void PageTable::carve(std::uint64_t vaddr, std::uint64_t last) {
  auto it = run_from(vaddr);
  while (it != entries_.end() && it->first <= last) {
    const std::uint64_t base = it->first;
    const Entry e = it->second;
    const std::uint64_t page = bytes(e.size);
    it = entries_.erase(it);
    // Keep the whole pages below vaddr and above last.
    const std::uint64_t below = vaddr > base ? (vaddr - base) / page * page : 0;
    if (below != 0)
      entries_.emplace_hint(it, base, Entry{e.paddr, e.flags, e.size, below});
    const std::uint64_t last_page = (last - base) / page;
    if (last_page + 1 < e.len / page) {
      const std::uint64_t above = (last_page + 1) * page;
      it = entries_.emplace_hint(
          it, base + above,
          Entry{e.paddr + above, e.flags, e.size, e.len - above});
    }
  }
}

const PageTable::Entry* PageTable::find(std::uint64_t vaddr,
                                        std::uint64_t* entry_base) const {
  const auto it = run_from(vaddr);
  if (it == entries_.end() || it->first > vaddr) return nullptr;
  if (entry_base) *entry_base = it->first;
  return &it->second;
}

WalkResult PageTable::walk(std::uint64_t vaddr, int psc_hits) const {
  WalkResult r;
  psc_hits = std::clamp(psc_hits, 0, 3);

  std::uint64_t base = 0;
  if (const Entry* e = find(vaddr, &base)) {
    r.page_size = e->size;
    const int depth = (e->size == PageSize::k2M) ? 3 : 4;
    r.levels_fetched = std::max(1, depth - psc_hits);
    r.flags = e->flags;
    if (e->flags.reserved) {
      // FLARE-style dummy: the leaf exists, the walk completes, but the
      // reserved bit faults the access and the MMU installs no TLB entry.
      r.status = WalkStatus::ReservedBit;
      r.miss_level = depth;
      return r;
    }
    if (!e->flags.present) {
      r.status = WalkStatus::NotPresent;
      r.miss_level = depth;
      return r;
    }
    r.status = WalkStatus::Ok;
    r.paddr = e->paddr + (vaddr - base);
    return r;
  }

  // Unmapped: the walker follows whatever upper-level tables exist for this
  // prefix and stops at the first non-present entry. Depth is derived from
  // the nearest existing leaf pages (they imply which intermediate tables
  // are allocated): the next run's first page and the previous run's last.
  int deepest = 1;
  auto it = entries_.lower_bound(vaddr);
  if (it != entries_.end())
    deepest = std::max(deepest,
                       std::min(first_divergent_level(vaddr, it->first), 4));
  if (it != entries_.begin()) {
    const auto& [base, prev] = *std::prev(it);
    const std::uint64_t last_page = base + prev.len - bytes(prev.size);
    deepest = std::max(deepest,
                       std::min(first_divergent_level(vaddr, last_page), 4));
  }
  r.status = WalkStatus::NotPresent;
  r.miss_level = deepest;
  r.levels_fetched = std::max(1, deepest - psc_hits);
  return r;
}

std::optional<WalkResult> PageTable::lookup(std::uint64_t vaddr) const {
  WalkResult r = walk(vaddr);
  if (r.status == WalkStatus::Ok) return r;
  return std::nullopt;
}

}  // namespace whisper::mem

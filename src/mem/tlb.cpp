#include "mem/tlb.h"

#include <bit>
#include <stdexcept>

namespace whisper::mem {

namespace {
constexpr int shift_for(PageSize s) noexcept {
  return s == PageSize::k4K ? 12 : 21;
}
}  // namespace

Tlb::Tlb(std::size_t sets, std::size_t ways) : sets_(sets), ways_(ways) {
  if (sets == 0 || !std::has_single_bit(sets))
    throw std::invalid_argument("Tlb: sets must be a power of two");
  if (ways == 0) throw std::invalid_argument("Tlb: ways must be >= 1");
  ways_storage_.resize(sets_ * ways_);
}

Tlb::Way* Tlb::find(std::uint64_t vaddr) {
  for (PageSize size : {PageSize::k4K, PageSize::k2M}) {
    const std::uint64_t vpn = vaddr >> shift_for(size);
    const std::size_t set = set_index(vpn);
    for (std::size_t w = 0; w < ways_; ++w) {
      Way& way = ways_storage_[set * ways_ + w];
      if (valid(way) && way.entry.size == size && way.entry.vpn == vpn)
        return &way;
    }
  }
  return nullptr;
}

const Tlb::Way* Tlb::find(std::uint64_t vaddr) const {
  return const_cast<Tlb*>(this)->find(vaddr);
}

std::optional<TlbEntry> Tlb::lookup(std::uint64_t vaddr) {
  if (Way* way = find(vaddr)) {
    way->lru = ++tick_;
    return way->entry;
  }
  return std::nullopt;
}

const TlbEntry* Tlb::lookup_ref(std::uint64_t vaddr) {
  if (Way* way = find(vaddr)) {
    way->lru = ++tick_;
    return &way->entry;
  }
  return nullptr;
}

bool Tlb::contains(std::uint64_t vaddr) const { return find(vaddr) != nullptr; }

void Tlb::insert(std::uint64_t vaddr, std::uint64_t paddr, PteFlags flags,
                 PageSize size) {
  const int shift = shift_for(size);
  const std::uint64_t vpn = vaddr >> shift;
  if (Way* way = find(vaddr)) {
    way->entry = TlbEntry{vpn, paddr >> shift, flags, size, flags.global};
    way->lru = ++tick_;
    return;
  }
  const std::size_t set = set_index(vpn);
  Way* victim = &ways_storage_[set * ways_];
  for (std::size_t w = 0; w < ways_; ++w) {
    Way& way = ways_storage_[set * ways_ + w];
    if (!valid(way)) {
      victim = &way;
      break;
    }
    if (way.lru < victim->lru) victim = &way;
  }
  touch_set(set);
  victim->stamp = generation_;
  victim->entry = TlbEntry{vpn, paddr >> shift, flags, size, flags.global};
  victim->lru = ++tick_;
}

void Tlb::invalidate_page(std::uint64_t vaddr) {
  while (Way* way = find(vaddr)) way->stamp = 0;
}

void Tlb::flush_all() { ++generation_; }

void Tlb::flush_non_global() {
  for (Way& way : ways_storage_)
    if (valid(way) && !way.entry.global) way.stamp = 0;
}

void Tlb::touch_set(std::size_t set) {
  if (!has_baseline_ || set_epoch_[set] == epoch_) return;
  set_epoch_[set] = epoch_;
  dirty_sets_.push_back(static_cast<std::uint32_t>(set));
}

void Tlb::snapshot() {
  has_baseline_ = true;
  baseline_tick_ = tick_;
  baseline_ways_.clear();
  for (std::size_t i = 0; i < ways_storage_.size(); ++i) {
    if (valid(ways_storage_[i]))
      baseline_ways_.emplace_back(static_cast<std::uint32_t>(i),
                                  ways_storage_[i]);
  }
  set_epoch_.assign(sets_, 0);
  dirty_sets_.clear();
  epoch_ = 1;
}

void Tlb::reset() {
  if (!has_baseline_) throw std::logic_error("Tlb::reset: no snapshot taken");
  for (const std::uint32_t set : dirty_sets_) {
    for (std::size_t w = 0; w < ways_; ++w)
      ways_storage_[set * ways_ + w].stamp = 0;
  }
  for (const auto& [i, way] : baseline_ways_) {
    ways_storage_[i] = way;
    ways_storage_[i].stamp = generation_;
  }
  tick_ = baseline_tick_;
  dirty_sets_.clear();
  ++epoch_;
}

std::size_t Tlb::occupancy() const noexcept {
  std::size_t n = 0;
  for (const Way& way : ways_storage_)
    if (valid(way)) ++n;
  return n;
}

}  // namespace whisper::mem

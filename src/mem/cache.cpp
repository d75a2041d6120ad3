#include "mem/cache.h"

#include <bit>
#include <stdexcept>

namespace whisper::mem {

Cache::Cache(std::size_t sets, std::size_t ways)
    : sets_(sets), ways_(ways), block_of_set_(sets) {
  if (sets == 0 || !std::has_single_bit(sets))
    throw std::invalid_argument("Cache: sets must be a power of two");
  if (ways == 0) throw std::invalid_argument("Cache: ways must be >= 1");
}

bool Cache::access(std::uint64_t paddr) {
  const std::uint64_t line = paddr / kLineBytes;
  Way* set = set_ways(set_index(line));
  if (!set) return false;
  for (std::size_t w = 0; w < ways_; ++w) {
    Way& way = set[w];
    if (way.valid && way.tag == line) {
      way.lru = ++tick_;
      return true;
    }
  }
  return false;
}

bool Cache::contains(std::uint64_t paddr) const {
  const std::uint64_t line = paddr / kLineBytes;
  const Way* set = set_ways(set_index(line));
  if (!set) return false;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (set[w].valid && set[w].tag == line) return true;
  }
  return false;
}

std::uint64_t Cache::fill(std::uint64_t paddr) {
  const std::uint64_t line = paddr / kLineBytes;
  const std::size_t set_idx = set_index(line);
  if (block_of_set_[set_idx] == 0) {
    ways_storage_.resize(ways_storage_.size() + ways_);
    block_epoch_.push_back(0);
    block_of_set_[set_idx] = static_cast<std::uint32_t>(block_epoch_.size());
  }
  const std::uint32_t block = block_of_set_[set_idx] - 1;
  Way* set = &ways_storage_[block * ways_];
  Way* victim = nullptr;
  for (std::size_t w = 0; w < ways_; ++w) {
    Way& way = set[w];
    if (way.valid && way.tag == line) {
      way.lru = ++tick_;
      return 0;  // already resident
    }
    if (!way.valid) {
      if (!victim || victim->valid) victim = &way;
    } else if (!victim || (victim->valid && way.lru < victim->lru)) {
      victim = &way;
    }
  }
  std::uint64_t evicted = 0;
  if (victim->valid) evicted = victim->tag * kLineBytes;
  touch_block(block);
  victim->valid = true;
  victim->tag = line;
  victim->lru = ++tick_;
  return evicted;
}

void Cache::flush_line(std::uint64_t paddr) {
  const std::uint64_t line = paddr / kLineBytes;
  Way* set = set_ways(set_index(line));
  if (!set) return;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (set[w].valid && set[w].tag == line) set[w].valid = false;
  }
}

void Cache::flush_all() {
  for (Way& way : ways_storage_) way.valid = false;
}

void Cache::touch_block(std::uint32_t block) {
  if (!has_baseline_ || block_epoch_[block] == epoch_) return;
  block_epoch_[block] = epoch_;
  dirty_blocks_.push_back(block);
}

void Cache::snapshot() {
  has_baseline_ = true;
  baseline_tick_ = tick_;
  baseline_ways_.clear();
  for (std::size_t i = 0; i < ways_storage_.size(); ++i) {
    if (ways_storage_[i].valid)
      baseline_ways_.emplace_back(static_cast<std::uint32_t>(i),
                                  ways_storage_[i]);
  }
  block_epoch_.assign(block_epoch_.size(), 0);
  dirty_blocks_.clear();
  epoch_ = 1;
}

void Cache::reset() {
  if (!has_baseline_)
    throw std::logic_error("Cache::reset: no snapshot taken");
  for (const std::uint32_t block : dirty_blocks_) {
    for (std::size_t w = 0; w < ways_; ++w)
      ways_storage_[block * ways_ + w].valid = false;
  }
  for (const auto& [i, way] : baseline_ways_) ways_storage_[i] = way;
  tick_ = baseline_tick_;
  dirty_blocks_.clear();
  ++epoch_;
}

std::size_t Cache::occupancy() const noexcept {
  std::size_t n = 0;
  for (const Way& way : ways_storage_)
    if (way.valid) ++n;
  return n;
}

}  // namespace whisper::mem

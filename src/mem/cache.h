// Set-associative data cache (physical-address indexed) with LRU
// replacement and CLFLUSH support. Instances are stacked into an
// L1/L2/LLC hierarchy by MemorySystem; the Flush+Reload baseline depends on
// transient fills being architecturally persistent here.
//
// Storage is sparse: a set owns no ways until its first fill, when one block
// of `ways` is appended to the way storage. Construction, snapshot(),
// flush_all() and occupancy() therefore cost the sets a machine has touched,
// not the geometry (a default LLC has 8,192 sets x 16 ways, about 3 MiB of
// ways a fresh machine never reads).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace whisper::mem {

class Cache {
 public:
  /// `sets` must be a power of two. Line size is 64 bytes throughout.
  Cache(std::size_t sets, std::size_t ways);

  static constexpr std::uint64_t kLineBytes = 64;

  /// True if the line containing paddr is resident; updates LRU on hit.
  bool access(std::uint64_t paddr);
  /// Probe without touching LRU.
  [[nodiscard]] bool contains(std::uint64_t paddr) const;
  /// Install the line containing paddr (evicting LRU if needed).
  /// Returns the evicted line address, or 0 if none was evicted.
  std::uint64_t fill(std::uint64_t paddr);
  /// Remove the line containing paddr if resident (CLFLUSH).
  void flush_line(std::uint64_t paddr);
  void flush_all();

  /// Capture the current contents as the baseline reset() restores. Begins
  /// dirty tracking: fills mark their set, so reset() only walks the sets
  /// actually touched since.
  void snapshot();
  /// Restore the baseline: invalidate every dirty set, reapply the baseline
  /// ways (which also heals LRU updates and flushes of baseline lines), and
  /// restore the LRU clock. Throws std::logic_error without a snapshot.
  void reset();
  [[nodiscard]] bool snapshotted() const noexcept { return has_baseline_; }
  /// Sets touched by a fill since the last snapshot()/reset().
  [[nodiscard]] std::size_t dirty_sets() const noexcept {
    return dirty_blocks_.size();
  }

  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::size_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t occupancy() const noexcept;

 private:
  struct Way {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
  };

  [[nodiscard]] std::size_t set_index(std::uint64_t line) const noexcept {
    return static_cast<std::size_t>(line) & (sets_ - 1);
  }

  /// The ways of `set`, or nullptr if the set was never filled.
  [[nodiscard]] Way* set_ways(std::size_t set) noexcept {
    const std::uint32_t block = block_of_set_[set];
    return block == 0 ? nullptr : &ways_storage_[(block - 1) * ways_];
  }
  [[nodiscard]] const Way* set_ways(std::size_t set) const noexcept {
    return const_cast<Cache*>(this)->set_ways(set);
  }

  void touch_block(std::uint32_t block);

  std::size_t sets_;
  std::size_t ways_;
  std::uint64_t tick_ = 0;
  // Per set: 1 + the index of its block of ways in ways_storage_, or 0 if
  // the set was never filled. Blocks are appended and never freed or moved.
  std::vector<std::uint32_t> block_of_set_;
  std::vector<Way> ways_storage_;

  // Snapshot/reset state. Baseline ways are stored as (storage index, Way)
  // and reapplied unconditionally on reset — any in-place mutation of a
  // baseline line (LRU bump, flush, eviction) is healed without having been
  // tracked. Only *fills* need marking, so reset() knows which blocks hold
  // post-snapshot lines to invalidate.
  bool has_baseline_ = false;
  std::uint64_t baseline_tick_ = 0;
  std::vector<std::pair<std::uint32_t, Way>> baseline_ways_;
  std::uint64_t epoch_ = 1;
  std::vector<std::uint64_t> block_epoch_;  // one per block
  std::vector<std::uint32_t> dirty_blocks_;
};

}  // namespace whisper::mem

// Differential tests of the sparse-directory Cache and the generation-stamped
// Tlb against dense references: the sets x ways arrays with a valid bit per
// way that both structures used before. Fixed-seed random sequences of
// every mutating and probing call, snapshot() and reset() included, must
// give equal return values, equal evicted addresses and equal occupancy().
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mem/cache.h"
#include "mem/tlb.h"
#include "stats/rng.h"

namespace whisper::mem {
namespace {

// Dense snapshot/reset bookkeeping shared by both references: baseline ways
// reapplied wholesale, fills mark their set dirty.
template <typename Way>
struct DenseStore {
  DenseStore(std::size_t sets, std::size_t ways)
      : sets(sets), ways(ways), storage(sets * ways) {}

  Way* set(std::size_t s) { return &storage[s * ways]; }
  void touch(std::size_t s) {
    if (has_baseline && set_epoch[s] != epoch) {
      set_epoch[s] = epoch;
      dirty.push_back(s);
    }
  }
  void snapshot() {
    has_baseline = true;
    baseline_tick = tick;
    baseline.clear();
    for (std::size_t i = 0; i < storage.size(); ++i)
      if (storage[i].valid) baseline.emplace_back(i, storage[i]);
    set_epoch.assign(sets, 0);
    dirty.clear();
    epoch = 1;
  }
  void reset() {
    if (!has_baseline) throw std::logic_error("no snapshot");
    for (const std::size_t s : dirty)
      for (std::size_t w = 0; w < ways; ++w) set(s)[w].valid = false;
    for (const auto& [i, way] : baseline) storage[i] = way;
    tick = baseline_tick;
    dirty.clear();
    ++epoch;
  }
  [[nodiscard]] std::size_t occupancy() const {
    std::size_t n = 0;
    for (const Way& w : storage) n += w.valid;
    return n;
  }

  std::size_t sets, ways;
  std::vector<Way> storage;
  std::uint64_t tick = 0;
  bool has_baseline = false;
  std::uint64_t baseline_tick = 0;
  std::vector<std::pair<std::size_t, Way>> baseline;
  std::uint64_t epoch = 1;
  std::vector<std::uint64_t> set_epoch;
  std::vector<std::size_t> dirty;
};

class DenseCache {
 public:
  DenseCache(std::size_t sets, std::size_t ways) : d_(sets, ways) {}

  bool access(std::uint64_t paddr) {
    for (std::size_t w = 0; w < d_.ways; ++w) {
      Way& way = set_of(paddr)[w];
      if (way.valid && way.tag == paddr / Cache::kLineBytes) {
        way.lru = ++d_.tick;
        return true;
      }
    }
    return false;
  }
  bool contains(std::uint64_t paddr) {
    for (std::size_t w = 0; w < d_.ways; ++w) {
      const Way& way = set_of(paddr)[w];
      if (way.valid && way.tag == paddr / Cache::kLineBytes) return true;
    }
    return false;
  }
  std::uint64_t fill(std::uint64_t paddr) {
    const std::uint64_t line = paddr / Cache::kLineBytes;
    Way* victim = nullptr;
    for (std::size_t w = 0; w < d_.ways; ++w) {
      Way& way = set_of(paddr)[w];
      if (way.valid && way.tag == line) {
        way.lru = ++d_.tick;
        return 0;
      }
      if (!way.valid) {
        if (!victim || victim->valid) victim = &way;
      } else if (!victim || (victim->valid && way.lru < victim->lru)) {
        victim = &way;
      }
    }
    const std::uint64_t evicted =
        victim->valid ? victim->tag * Cache::kLineBytes : 0;
    d_.touch(line & (d_.sets - 1));
    *victim = Way{true, line, ++d_.tick};
    return evicted;
  }
  void flush_line(std::uint64_t paddr) {
    for (std::size_t w = 0; w < d_.ways; ++w) {
      Way& way = set_of(paddr)[w];
      if (way.valid && way.tag == paddr / Cache::kLineBytes) way.valid = false;
    }
  }
  void flush_all() {
    for (Way& way : d_.storage) way.valid = false;
  }
  void snapshot() { d_.snapshot(); }
  void reset() { d_.reset(); }
  [[nodiscard]] std::size_t occupancy() const { return d_.occupancy(); }
  [[nodiscard]] std::size_t dirty_sets() const { return d_.dirty.size(); }

 private:
  struct Way {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
  };
  Way* set_of(std::uint64_t paddr) {
    return d_.set((paddr / Cache::kLineBytes) & (d_.sets - 1));
  }
  DenseStore<Way> d_;
};

TEST(CacheDifferential, RandomSequencesMatchDenseCache) {
  const struct {
    std::size_t sets, ways;
  } kGeometries[] = {{1, 1}, {4, 2}, {64, 4}, {1024, 8}};
  for (const auto& g : kGeometries) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(testing::Message() << g.sets << "x" << g.ways << " seed "
                                      << seed);
      stats::Xoshiro256 rng(0xcac4e000ULL + seed);
      Cache got(g.sets, g.ways);
      DenseCache want(g.sets, g.ways);
      // Lines drawn from a pool about 3x the capacity of a quarter of the
      // sets, so sets fill, evict and stay untouched in the same run.
      const std::uint64_t pool = 3 * g.ways * (g.sets / 4 + 1);
      const std::uint64_t stride =
          Cache::kLineBytes * (g.sets / 4 > 0 ? 4 : 1);
      for (int step = 0; step < 4000; ++step) {
        const std::uint64_t paddr =
            0x40000000ull + rng.next_below(pool) * stride +
            rng.next_below(Cache::kLineBytes);
        switch (rng.next_below(40)) {
          case 0:
            got.flush_all();
            want.flush_all();
            break;
          case 1:
          case 2:
            got.snapshot();
            want.snapshot();
            break;
          case 3:
          case 4:
          case 5: {
            bool threw_got = false, threw_want = false;
            try {
              got.reset();
            } catch (const std::logic_error&) {
              threw_got = true;
            }
            try {
              want.reset();
            } catch (const std::logic_error&) {
              threw_want = true;
            }
            ASSERT_EQ(threw_got, threw_want) << "step " << step;
            break;
          }
          case 6:
          case 7:
          case 8:
          case 9:
            got.flush_line(paddr);
            want.flush_line(paddr);
            break;
          default:
            if (rng.next_bool(0.5)) {
              ASSERT_EQ(got.fill(paddr), want.fill(paddr)) << "step " << step;
            } else if (rng.next_bool(0.7)) {
              ASSERT_EQ(got.access(paddr), want.access(paddr))
                  << "step " << step;
            } else {
              ASSERT_EQ(got.contains(paddr), want.contains(paddr))
                  << "step " << step;
            }
        }
        ASSERT_EQ(got.occupancy(), want.occupancy()) << "step " << step;
        ASSERT_EQ(got.dirty_sets(), want.dirty_sets()) << "step " << step;
      }
    }
  }
}

class DenseTlb {
 public:
  DenseTlb(std::size_t sets, std::size_t ways) : d_(sets, ways) {}

  std::optional<TlbEntry> lookup(std::uint64_t vaddr) {
    if (Way* way = find(vaddr)) {
      way->lru = ++d_.tick;
      return way->entry;
    }
    return std::nullopt;
  }
  bool contains(std::uint64_t vaddr) { return find(vaddr) != nullptr; }
  void insert(std::uint64_t vaddr, std::uint64_t paddr, PteFlags flags,
              PageSize size) {
    const int shift = size == PageSize::k4K ? 12 : 21;
    const std::uint64_t vpn = vaddr >> shift;
    const TlbEntry entry{vpn, paddr >> shift, flags, size, flags.global};
    if (Way* way = find(vaddr)) {
      way->entry = entry;
      way->lru = ++d_.tick;
      return;
    }
    const std::size_t set = vpn & (d_.sets - 1);
    Way* victim = d_.set(set);
    for (std::size_t w = 0; w < d_.ways; ++w) {
      Way& way = d_.set(set)[w];
      if (!way.valid) {
        victim = &way;
        break;
      }
      if (way.lru < victim->lru) victim = &way;
    }
    d_.touch(set);
    *victim = Way{true, entry, ++d_.tick};
  }
  void invalidate_page(std::uint64_t vaddr) {
    while (Way* way = find(vaddr)) way->valid = false;
  }
  void flush_all() {
    for (Way& way : d_.storage) way.valid = false;
  }
  void flush_non_global() {
    for (Way& way : d_.storage)
      if (way.valid && !way.entry.global) way.valid = false;
  }
  void snapshot() { d_.snapshot(); }
  void reset() { d_.reset(); }
  [[nodiscard]] std::size_t occupancy() const { return d_.occupancy(); }

 private:
  struct Way {
    bool valid = false;
    TlbEntry entry;
    std::uint64_t lru = 0;
  };
  Way* find(std::uint64_t vaddr) {
    for (PageSize size : {PageSize::k4K, PageSize::k2M}) {
      const std::uint64_t vpn = vaddr >> (size == PageSize::k4K ? 12 : 21);
      Way* set = d_.set(vpn & (d_.sets - 1));
      for (std::size_t w = 0; w < d_.ways; ++w)
        if (set[w].valid && set[w].entry.size == size &&
            set[w].entry.vpn == vpn)
          return &set[w];
    }
    return nullptr;
  }
  DenseStore<Way> d_;
};

TEST(TlbDifferential, RandomSequencesMatchValidBitTlb) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    stats::Xoshiro256 rng(0x71b0000ULL + seed);
    Tlb got(16, 4);
    DenseTlb want(16, 4);
    for (int step = 0; step < 4000; ++step) {
      const bool big = rng.next_bool(0.2);
      const std::uint64_t vaddr =
          (big ? 0xffffffff80000000ull + (rng.next_below(96) << 21)
               : 0x400000ull + (rng.next_below(192) << 12)) +
          rng.next_below(4096);
      switch (rng.next_below(40)) {
        case 0:
          got.flush_all();
          want.flush_all();
          break;
        case 1:
          got.flush_non_global();
          want.flush_non_global();
          break;
        case 2:
          got.snapshot();
          want.snapshot();
          break;
        case 3:
        case 4: {
          bool threw_got = false, threw_want = false;
          try {
            got.reset();
          } catch (const std::logic_error&) {
            threw_got = true;
          }
          try {
            want.reset();
          } catch (const std::logic_error&) {
            threw_want = true;
          }
          ASSERT_EQ(threw_got, threw_want) << "step " << step;
          break;
        }
        case 5:
        case 6:
          got.invalidate_page(vaddr);
          want.invalidate_page(vaddr);
          break;
        default:
          if (rng.next_bool(0.5)) {
            const PteFlags flags{.present = true,
                                 .writable = rng.next_bool(0.5),
                                 .user = !big,
                                 .global = big && rng.next_bool(0.8)};
            const std::uint64_t paddr = rng.next_below(1024) << 21;
            const PageSize size = big ? PageSize::k2M : PageSize::k4K;
            got.insert(vaddr, paddr, flags, size);
            want.insert(vaddr, paddr, flags, size);
          } else if (rng.next_bool(0.7)) {
            const auto a = got.lookup(vaddr);
            const auto b = want.lookup(vaddr);
            ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
            if (a) {
              EXPECT_EQ(a->vpn, b->vpn);
              EXPECT_EQ(a->pfn, b->pfn);
              EXPECT_EQ(a->flags, b->flags);
              EXPECT_EQ(a->size, b->size);
            }
          } else {
            ASSERT_EQ(got.contains(vaddr), want.contains(vaddr))
                << "step " << step;
          }
      }
      ASSERT_EQ(got.occupancy(), want.occupancy()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace whisper::mem

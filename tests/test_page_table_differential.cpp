// Differential test of the run-length PageTable against a per-page reference
// model: the one-std::map-node-per-leaf-page table the simulator used
// before runs, with the map() contract it documents (an overlap with the
// other page size throws before anything changes). Fixed-seed random
// sequences of 4K/2M maps, remaps over a run's middle and partial unmaps
// that split runs are applied to both; after every step the full WalkResult
// of many probes (psc_hits 0..3, addresses just past each run's end, far
// addresses) and the page-by-page enumeration must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "mem/page_table.h"
#include "stats/rng.h"

namespace whisper::mem {
namespace {

class PerPageTable {
 public:
  void map(std::uint64_t vaddr, std::uint64_t paddr, std::uint64_t len,
           PteFlags flags, PageSize size) {
    const std::uint64_t page = bytes(size);
    if (vaddr % page || paddr % page || len % page || len == 0)
      throw std::invalid_argument("misaligned");
    // Every existing leaf that overlaps the range must have the same size.
    for (std::uint64_t off = 0; off < len; off += page) {
      std::uint64_t base = 0;
      if (const Entry* e = find(vaddr + off, &base); e && e->size != size)
        throw std::invalid_argument("overlap");
    }
    for (auto it = entries_.lower_bound(vaddr);
         it != entries_.end() && it->first < vaddr + len; ++it) {
      if (it->second.size != size) throw std::invalid_argument("overlap");
    }
    for (std::uint64_t off = 0; off < len; off += page)
      entries_[vaddr + off] = Entry{paddr + off, flags, size};
  }

  void unmap(std::uint64_t vaddr, std::uint64_t len) {
    if (len == 0) return;
    auto it = entries_.lower_bound(vaddr);
    if (it != entries_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + bytes(prev->second.size) > vaddr) it = prev;
    }
    while (it != entries_.end() && it->first < vaddr + len)
      it = entries_.erase(it);
  }

  [[nodiscard]] WalkResult walk(std::uint64_t vaddr, int psc_hits) const {
    WalkResult r;
    psc_hits = std::clamp(psc_hits, 0, 3);
    std::uint64_t base = 0;
    if (const Entry* e = find(vaddr, &base)) {
      r.page_size = e->size;
      const int depth = (e->size == PageSize::k2M) ? 3 : 4;
      r.levels_fetched = std::max(1, depth - psc_hits);
      r.flags = e->flags;
      if (e->flags.reserved) {
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
    int deepest = 1;
    auto it = entries_.lower_bound(vaddr);
    if (it != entries_.end())
      deepest = std::max(deepest,
                         std::min(first_divergent_level(vaddr, it->first), 4));
    if (it != entries_.begin())
      deepest = std::max(
          deepest,
          std::min(first_divergent_level(vaddr, std::prev(it)->first), 4));
    r.status = WalkStatus::NotPresent;
    r.miss_level = deepest;
    r.levels_fetched = std::max(1, deepest - psc_hits);
    return r;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [v, e] : entries_) fn(v, e.paddr, e.flags, e.size);
  }

 private:
  struct Entry {
    std::uint64_t paddr = 0;
    PteFlags flags;
    PageSize size = PageSize::k4K;
  };

  const Entry* find(std::uint64_t vaddr, std::uint64_t* entry_base) const {
    auto it = entries_.upper_bound(vaddr);
    if (it == entries_.begin()) return nullptr;
    --it;
    if (vaddr < it->first + bytes(it->second.size)) {
      *entry_base = it->first;
      return &it->second;
    }
    return nullptr;
  }

  std::map<std::uint64_t, Entry> entries_;
};

using Leaf = std::tuple<std::uint64_t, std::uint64_t, PteFlags, PageSize>;

template <typename Table>
std::vector<Leaf> leaves(const Table& t) {
  std::vector<Leaf> out;
  t.for_each([&](std::uint64_t v, std::uint64_t p, const PteFlags& f,
                 PageSize s) { out.emplace_back(v, p, f, s); });
  return out;
}

void expect_same_walk(const PageTable& got, const PerPageTable& want,
                      std::uint64_t vaddr, int step) {
  for (int psc = 0; psc <= 3; ++psc) {
    const WalkResult a = got.walk(vaddr, psc);
    const WalkResult b = want.walk(vaddr, psc);
    SCOPED_TRACE(testing::Message() << "step " << step << " vaddr 0x"
                                    << std::hex << vaddr << " psc " << psc);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.paddr, b.paddr);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.page_size, b.page_size);
    EXPECT_EQ(a.levels_fetched, b.levels_fetched);
    EXPECT_EQ(a.miss_level, b.miss_level);
    if (psc == 0) {
      const auto l = got.lookup(vaddr);
      EXPECT_EQ(l.has_value(), b.status == WalkStatus::Ok);
      if (l) {
        EXPECT_EQ(l->paddr, b.paddr);
      }
    }
  }
}

// Two windows: user-half 4K/2M churn around 0x40000000, and a kernel-half
// window, so unmapped walks see neighbours at every divergence level.
constexpr std::uint64_t kWindows[] = {0x0000000040000000ull,
                                      0xffffffff80000000ull};
constexpr std::uint64_t kWindowBytes = 16ull << 21;  // 16 2-MiB slots
constexpr std::uint64_t k4K = bytes(PageSize::k4K);
constexpr std::uint64_t k2M = bytes(PageSize::k2M);

TEST(PageTableDifferential, RandomSequencesMatchPerPageModel) {
  int refused = 0;  // maps both tables refused: the overlap rule is exercised
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    stats::Xoshiro256 rng(0x9a6e7ab1eULL + seed);
    PageTable got;
    PerPageTable want;
    std::vector<std::uint64_t> probes;
    for (int step = 0; step < 100; ++step) {
      const std::uint64_t win = kWindows[rng.next_below(2)];
      const bool big = rng.next_bool(0.3);
      const std::uint64_t page = big ? k2M : k4K;
      const std::uint64_t slots = kWindowBytes / page;
      const std::uint64_t vaddr = win + rng.next_below(slots) * page;
      const std::uint64_t pages =
          1 + rng.next_below(big ? 3 : (rng.next_bool(0.2) ? 600 : 24));
      const std::uint64_t len = pages * page;
      const std::uint64_t op = rng.next_below(10);
      if (op < 6) {
        const std::uint64_t paddr = 0x100000000ull + rng.next_below(1024) * k2M;
        const PteFlags flags{.present = !rng.next_bool(0.1),
                             .writable = rng.next_bool(0.5),
                             .user = rng.next_bool(0.5),
                             .global = rng.next_bool(0.3),
                             .reserved = rng.next_bool(0.1),
                             .no_exec = rng.next_bool(0.3)};
        const PageSize size = big ? PageSize::k2M : PageSize::k4K;
        bool threw_got = false, threw_want = false;
        try {
          got.map(vaddr, paddr, len, flags, size);
        } catch (const std::invalid_argument&) {
          threw_got = true;
        }
        try {
          want.map(vaddr, paddr, len, flags, size);
        } catch (const std::invalid_argument&) {
          threw_want = true;
        }
        ASSERT_EQ(threw_got, threw_want) << "seed " << seed << " step " << step;
        refused += threw_got;
      } else {
        // Partial unmaps: byte-granular ends split runs mid-page too.
        const std::uint64_t start = vaddr + rng.next_below(page);
        const std::uint64_t n = 1 + rng.next_below(len + page);
        got.unmap(start, n);
        want.unmap(start, n);
      }
      for (std::uint64_t edge : {vaddr - 1, vaddr, vaddr + len - 1,
                                 vaddr + len, vaddr + len + k4K,
                                 vaddr + len + k2M})
        probes.push_back(edge);
      for (int i = 0; i < 16; ++i)
        probes.push_back(kWindows[rng.next_below(2)] +
                         rng.next_below(kWindowBytes + k2M));
      probes.push_back(0x00007f0000000000ull + rng.next_below(1ull << 30));

      ASSERT_EQ(leaves(got), leaves(want)) << "seed " << seed << " step "
                                           << step;
      for (const std::uint64_t v : probes) expect_same_walk(got, want, v, step);
      if (HasFailure()) return;
      if (probes.size() > 200) probes.erase(probes.begin(), probes.end() - 64);
    }
  }
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace whisper::mem

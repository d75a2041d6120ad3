// Unit tests for the 4-level page-table walker — including the walk-depth
// and termination semantics the KASLR experiments rely on.
#include <gtest/gtest.h>

#include "mem/page_table.h"

namespace whisper::mem {
namespace {

PteFlags user_rw() {
  return {.present = true, .writable = true, .user = true};
}
PteFlags kernel_ro() {
  return {.present = true, .writable = false, .user = false, .global = true};
}

TEST(PageTableTest, MapAndWalk4K) {
  PageTable pt;
  pt.map(0x400000, 0x1000000, 0x3000, user_rw());
  const WalkResult r = pt.walk(0x401234);
  EXPECT_EQ(r.status, WalkStatus::Ok);
  EXPECT_EQ(r.paddr, 0x1001234u);
  EXPECT_EQ(r.page_size, PageSize::k4K);
  EXPECT_TRUE(r.flags.user);
}

TEST(PageTableTest, MapAndWalk2M) {
  PageTable pt;
  pt.map(0x40000000, 0x80000000, 2ull << 20, kernel_ro(), PageSize::k2M);
  const WalkResult r = pt.walk(0x40012345);
  EXPECT_EQ(r.status, WalkStatus::Ok);
  EXPECT_EQ(r.paddr, 0x80012345u);
  EXPECT_EQ(r.page_size, PageSize::k2M);
  EXPECT_FALSE(r.flags.user);
}

TEST(PageTableTest, MisalignedMappingThrows) {
  PageTable pt;
  EXPECT_THROW(pt.map(0x1001, 0x2000, 0x1000, user_rw()),
               std::invalid_argument);
  EXPECT_THROW(pt.map(0x1000, 0x2000, 0x800, user_rw()),
               std::invalid_argument);
  EXPECT_THROW(pt.map(0x100000, 0x200000, 2ull << 20, user_rw(),
                      PageSize::k2M),
               std::invalid_argument);
  EXPECT_THROW(pt.map(0x1000, 0x2000, 0, user_rw()), std::invalid_argument);
}

TEST(PageTableTest, UnmapRemovesRange) {
  PageTable pt;
  pt.map(0x400000, 0x1000000, 0x4000, user_rw());
  pt.unmap(0x401000, 0x2000);
  EXPECT_EQ(pt.walk(0x400000).status, WalkStatus::Ok);
  EXPECT_EQ(pt.walk(0x401000).status, WalkStatus::NotPresent);
  EXPECT_EQ(pt.walk(0x402fff).status, WalkStatus::NotPresent);
  EXPECT_EQ(pt.walk(0x403000).status, WalkStatus::Ok);
}

TEST(PageTableTest, ReservedLeafReportsReservedBit) {
  PageTable pt;
  PteFlags dummy = kernel_ro();
  dummy.reserved = true;
  pt.map(0x40000000, 0x80000000, 2ull << 20, dummy, PageSize::k2M);
  const WalkResult r = pt.walk(0x40000100);
  EXPECT_EQ(r.status, WalkStatus::ReservedBit);
  // A reserved walk still fetched the full depth of a 2M mapping.
  EXPECT_EQ(r.levels_fetched, 3);
}

TEST(PageTableTest, NonPresentLeafFlag) {
  PageTable pt;
  PteFlags np = user_rw();
  np.present = false;
  pt.map(0x400000, 0x1000000, 0x1000, np);
  EXPECT_EQ(pt.walk(0x400000).status, WalkStatus::NotPresent);
}

TEST(PageTableTest, UnmappedWalkDepthFollowsNeighbors) {
  PageTable pt;
  // Nothing mapped at all: walk dies at the PML4.
  EXPECT_EQ(pt.walk(0x1234000).miss_level, 1);

  // Map a 2M kernel page; a slot 2 MiB away shares PML4+PDPT+PD tables, so
  // the walker reaches level 3 before finding a non-present PDE.
  pt.map(0xffffffff80000000ull, 0x100000000ull, 2ull << 20, kernel_ro(),
         PageSize::k2M);
  const WalkResult near = pt.walk(0xffffffff80000000ull + (2ull << 20));
  EXPECT_EQ(near.status, WalkStatus::NotPresent);
  EXPECT_EQ(near.miss_level, 3);

  // An address in a different PML4 region dies at level 1.
  const WalkResult far = pt.walk(0x00007f0000000000ull);
  EXPECT_EQ(far.miss_level, 1);
}

TEST(PageTableTest, PscHitsReduceFetchedLevels) {
  PageTable pt;
  pt.map(0x400000, 0x1000000, 0x1000, user_rw());
  EXPECT_EQ(pt.walk(0x400000, 0).levels_fetched, 4);
  EXPECT_EQ(pt.walk(0x400000, 2).levels_fetched, 2);
  EXPECT_EQ(pt.walk(0x400000, 3).levels_fetched, 1);
  // Never less than one fetch.
  EXPECT_EQ(pt.walk(0x400000, 7).levels_fetched, 1);
}

TEST(PageTableTest, LookupReturnsOnlyPresentLeaves) {
  PageTable pt;
  pt.map(0x400000, 0x1000000, 0x1000, user_rw());
  EXPECT_TRUE(pt.lookup(0x400800).has_value());
  EXPECT_FALSE(pt.lookup(0x500000).has_value());
}

TEST(PageTableTest, OverlapWithDifferentPageSizeThrows) {
  PageTable pt;
  pt.map(0x40000000, 0x80000000, 2ull << 20, kernel_ro(), PageSize::k2M);
  EXPECT_THROW(pt.map(0x40000000, 0x90000000, 0x1000, user_rw()),
               std::invalid_argument);

  // A 2M map over a range whose 4K pages lie away from its base.
  pt.map(0x40601000, 0x90000000, 0x1000, user_rw());
  EXPECT_THROW(pt.map(0x40600000, 0xa0000000, 2ull << 20, kernel_ro(),
                      PageSize::k2M),
               std::invalid_argument);
  EXPECT_EQ(pt.walk(0x40600000).status, WalkStatus::NotPresent);
  EXPECT_EQ(pt.walk(0x40601000).page_size, PageSize::k4K);
  EXPECT_EQ(pt.walk(0x40601000).paddr, 0x90000000u);

  // A refused map changes nothing, not even the pages before the overlap.
  EXPECT_THROW(pt.map(0x3fffe000, 0x91000000, 0x3000, user_rw()),
               std::invalid_argument);
  EXPECT_EQ(pt.walk(0x3fffe000).status, WalkStatus::NotPresent);
  EXPECT_EQ(pt.walk(0x3ffff000).status, WalkStatus::NotPresent);
  EXPECT_EQ(pt.walk(0x40000000).page_size, PageSize::k2M);
  std::size_t leaves = 0;
  pt.for_each([&](std::uint64_t, std::uint64_t, const PteFlags&, PageSize) {
    ++leaves;
  });
  EXPECT_EQ(leaves, 2u);
}

TEST(PageTableTest, UnmapSplitsARunAndRemapReplacesItsMiddle) {
  PageTable pt;
  pt.map(0x400000, 0x1000000, 0x8000, user_rw());
  pt.unmap(0x402800, 0x1000);  // straddles two pages: both go
  EXPECT_EQ(pt.walk(0x401fff).paddr, 0x1001fffu);
  EXPECT_EQ(pt.walk(0x402000).status, WalkStatus::NotPresent);
  EXPECT_EQ(pt.walk(0x403fff).status, WalkStatus::NotPresent);
  EXPECT_EQ(pt.walk(0x404000).paddr, 0x1004000u);

  pt.map(0x405000, 0x2000000, 0x1000, kernel_ro());
  EXPECT_EQ(pt.walk(0x405000).paddr, 0x2000000u);
  EXPECT_FALSE(pt.walk(0x405000).flags.user);
  EXPECT_EQ(pt.walk(0x406000).paddr, 0x1006000u);

  // Just past the last page: the walk still reaches the PT level.
  const WalkResult past = pt.walk(0x408000);
  EXPECT_EQ(past.status, WalkStatus::NotPresent);
  EXPECT_EQ(past.miss_level, 4);
}

TEST(PageTableTest, ForEachVisitsAscending) {
  PageTable pt;
  pt.map(0x600000, 0x3000000, 0x1000, user_rw());
  pt.map(0x400000, 0x1000000, 0x1000, user_rw());
  std::vector<std::uint64_t> vaddrs;
  pt.for_each([&](std::uint64_t v, std::uint64_t, const PteFlags&, PageSize) {
    vaddrs.push_back(v);
  });
  ASSERT_EQ(vaddrs.size(), 2u);
  EXPECT_EQ(vaddrs[0], 0x400000u);
  EXPECT_EQ(vaddrs[1], 0x600000u);
}

TEST(FirstDivergentLevelTest, Boundaries) {
  const std::uint64_t a = 0xffffffff80000000ull;
  EXPECT_EQ(first_divergent_level(a, a), 5);                   // same page
  EXPECT_EQ(first_divergent_level(a, a + (1ull << 12)), 4);    // same PT? no: different PTE
  EXPECT_EQ(first_divergent_level(a, a + (1ull << 21)), 3);    // different PDE
  EXPECT_EQ(first_divergent_level(a, a + (1ull << 30)), 2);    // different PDPTE
  EXPECT_EQ(first_divergent_level(a, a + (1ull << 39)), 1);    // different PML4E
}

}  // namespace
}  // namespace whisper::mem

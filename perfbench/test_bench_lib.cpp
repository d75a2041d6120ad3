// Tests of the benchmark's own rules (bench_lib.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, P99OfAThousandSamplesLeavesTenBeyond) {
  const Percentile p = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  EXPECT_DOUBLE_EQ(p.percentile, 99.0);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_EQ(p.beyond, 10u);
}

TEST(Percentile, LowersTheRankUntilTenSamplesLieBeyond) {
  const Percentile p = tail_percentile(one_to(100));
  EXPECT_DOUBLE_EQ(p.value, 90.0);  // p99 would leave only one beyond
  EXPECT_DOUBLE_EQ(p.percentile, 90.0);
  EXPECT_EQ(p.beyond, 10u);

  const Percentile q = tail_percentile(one_to(11));
  EXPECT_DOUBLE_EQ(q.value, 1.0);
  EXPECT_EQ(q.beyond, 10u);
}

TEST(Percentile, TooFewSamplesReportTheMaximumWithNothingBeyond) {
  const Percentile p = tail_percentile(one_to(7));
  EXPECT_DOUBLE_EQ(p.value, 7.0);
  EXPECT_EQ(p.beyond, 0u);
  EXPECT_EQ(p.samples, 7u);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(Percentile, IgnoresInputOrderAndKeepsLargerSamplesFine) {
  std::vector<double> v = one_to(5000);
  std::reverse(v.begin(), v.end());
  const Percentile p = tail_percentile(v);
  EXPECT_DOUBLE_EQ(p.value, 4950.0);
  EXPECT_EQ(p.beyond, 50u);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Poisson, SameSeedSameScheduleOtherSeedOtherSchedule) {
  const std::vector<double> a = poisson_schedule(42, 300.0, 5.0);
  const std::vector<double> b = poisson_schedule(42, 300.0, 5.0);
  const std::vector<double> c = poisson_schedule(43, 300.0, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Poisson, ArrivalsAreSortedInsideTheWindowAtAboutTheRate) {
  const std::vector<double> a = poisson_schedule(7, 500.0, 20.0);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 20.0);
  // 10000 expected arrivals; a Poisson count is within 5 sigma (500).
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
  EXPECT_TRUE(poisson_schedule(7, 0.0, 1.0).empty());
  EXPECT_TRUE(poisson_schedule(7, 10.0, 0.0).empty());
}

TEST(MetricNames, FollowTheGrammar) {
  for (const char* ok : {"setup_s", "p99_ms", "runner.trial_ms.p50",
                         "core.attack_ms.rewind", "a", "9-x"})
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  for (const char* bad : {"", ".x", "_x", "-x", "has space", "a/b", "ümlaut",
                          "x{1}"})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // trial [0,100): acquire [0,10), reset [10,15), run [15,95) holding a
  // nested reset [15,20) that must not be subtracted from the trial twice.
  const std::vector<Span> spans = {
      {"runner.trial", 0, 100, -1, 1}, {"runner.acquire", 0, 10, 0, 1},
      {"os.reset", 10, 15, 0, 1},      {"core.run_trial", 15, 95, 0, 1},
      {"os.reset", 15, 20, 3, 1},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{5, 10, 5, 75, 5}));
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {"client.sweep", 100, 200, -1, 1},
      {"client.chunk", 100, 150, 0, 1},  // two endpoints in parallel
      {"client.chunk", 120, 170, 0, 1},
      {"client.fold", 190, 230, 0, 1},   // sticks out past the parent
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 70 - 10);
  EXPECT_EQ(self[3], 40);
}

TEST(SelfTime, RootsWithoutChildrenKeepTheirDuration) {
  const std::vector<Span> spans = {{"a", 5, 9, -1, 1}, {"b", 0, 3, -1, 2}};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{4, 3}));
}

}  // namespace
}  // namespace perfbench

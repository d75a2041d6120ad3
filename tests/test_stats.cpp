// Unit tests for whisper::stats — histogram, summaries, channel accounting,
// and the deterministic RNG everything else seeds from.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/error_rate.h"
#include "stats/histogram.h"
#include "stats/parse.h"
#include "stats/rng.h"
#include "stats/summary.h"

namespace whisper::stats {
namespace {

TEST(Rng, SplitMix64IsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroStreamsDifferBySeed) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextInIsInclusive) {
  Xoshiro256 r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_in(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(r.next_in(9, 9), 9);
  EXPECT_EQ(r.next_in(9, 2), 9);  // degenerate range clamps to lo
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 r(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.03);
}

TEST(Histogram, BasicCountsAndStats) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  h.add(10, 3);
  h.add(20);
  h.add(15);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(10), 3u);
  EXPECT_EQ(h.count(11), 0u);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 20);
  EXPECT_EQ(h.mode(), 10);
  EXPECT_DOUBLE_EQ(h.mean(), (30 + 20 + 15) / 5.0);
}

TEST(Histogram, PercentilesAreMonotone) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_EQ(h.percentile(0.0), 1);
  EXPECT_EQ(h.percentile(0.5), 50);
  EXPECT_EQ(h.percentile(1.0), 100);
  std::int64_t prev = h.percentile(0.0);
  for (double p = 0.1; p <= 1.0; p += 0.1) {
    const std::int64_t v = h.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.add(1, 2);
  b.add(1, 3);
  b.add(2, 1);
  a.merge(b);
  EXPECT_EQ(a.count(1), 5u);
  EXPECT_EQ(a.count(2), 1u);
  EXPECT_EQ(a.total(), 6u);
}

TEST(Histogram, EmptyThrowsAndAsciiIsSafe) {
  Histogram h;
  EXPECT_THROW((void)h.min(), std::logic_error);
  EXPECT_THROW((void)h.mean(), std::logic_error);
  EXPECT_THROW((void)h.percentile(0.5), std::logic_error);
  EXPECT_NE(h.ascii().find("empty"), std::string::npos);
  h.add(42, 7);
  const std::string art = h.ascii(4, 10);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Histogram, ZeroCountAddIsIgnored) {
  Histogram h;
  h.add(5, 0);
  EXPECT_TRUE(h.empty());
}

TEST(Summary, MatchesHandComputedValues) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stdev, std::sqrt(2.5), 1e-12);
}

TEST(Summary, EvenLengthMedianAveragesMiddle) {
  const std::vector<std::int64_t> xs = {4, 1, 3, 2};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Summary, EmptyInputIsZeroed) {
  const Summary s = summarize(std::span<const double>{});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(OnlineStatsTest, AgreesWithBatchSummary) {
  Xoshiro256 r(5);
  std::vector<double> xs;
  OnlineStats os;
  for (int i = 0; i < 500; ++i) {
    const double x = r.next_double() * 100;
    xs.push_back(x);
    os.add(x);
  }
  const Summary s = summarize(xs);
  EXPECT_EQ(os.n(), s.n);
  EXPECT_NEAR(os.mean(), s.mean, 1e-9);
  EXPECT_NEAR(os.stdev(), s.stdev, 1e-9);
  EXPECT_DOUBLE_EQ(os.min(), s.min);
  EXPECT_DOUBLE_EQ(os.max(), s.max);
}

TEST(OnlineStatsTest, MergeEqualsSequentialAdd) {
  // Chan et al. parallel variance: splitting a stream across accumulators
  // and merging must agree with one accumulator seeing everything — the
  // runner's merge step depends on this.
  Xoshiro256 r(17);
  OnlineStats whole, left, right, empty;
  for (int i = 0; i < 400; ++i) {
    const double x = r.next_double() * 50 - 25;
    whole.add(x);
    (i % 3 == 0 ? left : right).add(x);
  }
  OnlineStats merged = left;
  merged.merge(right);
  EXPECT_EQ(merged.n(), whole.n());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  // Merging with an empty accumulator is the identity, both ways.
  merged.merge(empty);
  EXPECT_EQ(merged.n(), whole.n());
  OnlineStats from_empty;
  from_empty.merge(whole);
  EXPECT_EQ(from_empty.n(), whole.n());
  EXPECT_NEAR(from_empty.stdev(), whole.stdev(), 1e-12);
}

TEST(OnlineStatsTest, SummarySnapshot) {
  OnlineStats os;
  os.add(1.0);
  os.add(3.0);
  const Summary s = os.summary();
  EXPECT_EQ(s.n, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_EQ(OnlineStats{}.summary().n, 0u);
}

TEST(ChannelReportTest, CountsByteAndBitErrors) {
  const std::vector<std::uint8_t> sent = {0x00, 0xff, 0x0f, 0xaa};
  const std::vector<std::uint8_t> recv = {0x00, 0xfe, 0x0f, 0x55};
  const ChannelReport r = evaluate_channel(sent, recv, 1'000'000, 1.0);
  EXPECT_EQ(r.bytes, 4u);
  EXPECT_EQ(r.byte_errors, 2u);
  EXPECT_EQ(r.bit_errors, 1u + 8u);
  EXPECT_DOUBLE_EQ(r.byte_error_rate, 0.5);
  EXPECT_NEAR(r.seconds, 1e-3, 1e-12);
  EXPECT_NEAR(r.bytes_per_second, 4000.0, 1e-6);
}

TEST(ChannelReportTest, MissingReceivedBytesCountAsErrors) {
  const std::vector<std::uint8_t> sent = {1, 2, 3};
  const std::vector<std::uint8_t> recv = {1};
  const ChannelReport r = evaluate_channel(sent, recv, 100, 1.0);
  EXPECT_EQ(r.byte_errors, 2u);
  EXPECT_EQ(r.bit_errors, 16u);
}

TEST(ChannelReportTest, RateFormatting) {
  EXPECT_EQ(format_rate(500.0), "500.0 B/s");
  EXPECT_EQ(format_rate(21'500.0), "21.5 KB/s");
  EXPECT_EQ(format_rate(2'500'000.0), "2.5 MB/s");
}

TEST(ParseUint, ReadsWholeDecimalOrHexTokens) {
  EXPECT_EQ(parse_uint<std::uint64_t>("8040930"), 8040930u);
  EXPECT_EQ(parse_uint<std::uint64_t>("0x7ab1e2"), 0x7ab1e2u);
  EXPECT_EQ(parse_uint<std::uint64_t>("0X7AB1E2"), 0x7ab1e2u);
  EXPECT_EQ(parse_uint<std::uint64_t>("18446744073709551615"),
            18446744073709551615u);
  EXPECT_EQ(parse_uint<int>("0"), 0);
  for (const char* bad : {"", "foo", "12x", "0x", "0x7ab1e2x", "-1", "+1",
                          " 1", "1.5", "18446744073709551616"})
    EXPECT_FALSE(parse_uint<std::uint64_t>(bad).has_value()) << bad;
  EXPECT_FALSE(parse_uint<int>("2147483648").has_value());
  EXPECT_EQ(parse_uint<int>("2147483647"), 2147483647);
}

TEST(ParseDouble, ReadsWholeFiniteTokens) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("-2"), -2.0);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
  EXPECT_EQ(parse_double("0.30000000000000004"), 0.1 + 0.2);
  for (const char* bad : {"", "1abc", "abc", "1.5x", " 1", "1 ", "+1", "inf",
                          "-inf", "nan", "1e400", "0x10", "1,5"})
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
}

}  // namespace
}  // namespace whisper::stats

// Pure helpers of the whisper benchmark: the percentile rule, the seeded
// Poisson arrival schedule, the metric-name grammar and span self-time.
// Nothing here touches the simulator, so perfbench_tests pins each rule in
// isolation (test_bench_lib.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/rng.h"

namespace perfbench {

/// Median of `v`: the middle value, or the mean of the two middle values
/// for an even count. 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  double percentile = 0.0;  // the percentile actually reported, in (0, 100]
  std::size_t samples = 0;
  std::size_t beyond = 0;   // samples ranked above the reported one
};

/// The tail rule: the nearest-rank `target` percentile (a fraction in
/// (0, 1]), lowered to the highest rank that still has at least
/// `min_beyond` samples beyond it. With too few samples for any such rank
/// the maximum is reported, with `beyond` = 0 saying so.
inline Percentile tail_percentile(std::vector<double> v, double target = 0.99,
                                  std::size_t min_beyond = 10) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double want = std::ceil(target * static_cast<double>(n));
  std::size_t rank = want < 1.0 ? 0 : static_cast<std::size_t>(want) - 1;
  rank = std::min(rank, n - 1);
  if (n - 1 - rank < min_beyond) rank = n > min_beyond ? n - 1 - min_beyond : n - 1;
  p.value = v[rank];
  p.beyond = n - 1 - rank;
  p.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return p;
}

/// Arrival offsets, in seconds from the phase start, of a Poisson process
/// of `rate` arrivals per second over [0, duration). Gaps are exponential,
/// -ln(1 - u) / rate, with u drawn from SplitMix64(seed): the schedule is a
/// pure function of its three arguments.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double duration) {
  std::vector<double> out;
  if (!(rate > 0.0) || !(duration > 0.0)) return out;
  whisper::stats::SplitMix64 rng(seed);
  double t = 0.0;
  for (;;) {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
    if (t >= duration) return out;
    out.push_back(t);
  }
}

/// Metric names: 1 to 64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool valid_metric_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s.front())) return false;
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// One timed interval. `parent` indexes the enclosing span in the same
/// vector (-1 for a root); `trace` groups the spans of one trial or request.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t trace = 0;

  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, and a
/// child sticking out of its parent counts only inside it).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, spans[i].end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    out[i] = spans[i].duration() - covered;
  }
  return out;
}

}  // namespace perfbench

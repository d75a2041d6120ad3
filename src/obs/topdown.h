// Top-down cycle attribution (Yasin's TMA level 1, adapted to the model).
//
// Splits every core cycle of a run into exactly one of four buckets:
//
//   bad_speculation  recovery + clear-resteer cycles — the machinery the
//                    Whisper timer actually measures (§5: the ToTE delta is
//                    squash/recovery work);
//   frontend_bound   instruction-fetch stalls and empty-RS cycles caused by
//                    MITE refetch after a resteer;
//   backend_bound    execution/memory stalls and allocation backpressure;
//   retiring         everything else — cycles spent doing useful work.
//
// Real TMA divides slot counts; the model's PMU counts stall *cycles*
// directly, so attribution is a sequential clamp: each bucket takes
// min(its counters, cycles not yet attributed), in the order above, and
// retiring is the remainder. That makes the invariant structural:
//
//   retiring + bad_speculation + frontend_bound + backend_bound == total
//
// holds exactly (not within rounding) for every TopDown this function
// produces, and bucket-wise addition preserves it — so per-trial
// attributions merged in trial-index order give a --jobs-independent,
// exactly-summing whole-run attribution.
#pragma once

#include <cstdint>
#include <string>

#include "uarch/pmu.h"

namespace whisper::obs {

struct TopDown {
  std::uint64_t total_cycles = 0;
  std::uint64_t retiring = 0;
  std::uint64_t bad_speculation = 0;
  std::uint64_t frontend_bound = 0;
  std::uint64_t backend_bound = 0;

  /// Bucket-wise sum; preserves the exact-sum invariant.
  TopDown& merge(const TopDown& other) noexcept;

  [[nodiscard]] double retiring_frac() const noexcept;
  [[nodiscard]] double bad_speculation_frac() const noexcept;
  [[nodiscard]] double frontend_bound_frac() const noexcept;
  [[nodiscard]] double backend_bound_frac() const noexcept;

  /// One-line report: "retiring 41.2% | bad-spec 30.1% | ...".
  [[nodiscard]] std::string to_string() const;

  bool operator==(const TopDown&) const = default;
};

/// Attribute the cycles of one measurement interval from a pmu_delta()
/// snapshot. The result's buckets sum to delta[CORE_CYCLES] exactly.
[[nodiscard]] TopDown attribute_cycles(const uarch::PmuSnapshot& delta);

}  // namespace whisper::obs

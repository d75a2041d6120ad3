// ToTE analysis: the paper's decoding procedure (§4.3.1).
//
// "We count the argmax of ToTE after traversing around the test value from 0
// to 255. The argmax of the counting result is the secret value." — each
// batch sweeps all test values once; the extreme (max for exception windows,
// min for early-clear windows) votes for one candidate; the candidate with
// the most votes wins.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/histogram.h"

namespace whisper::core {

enum class Polarity : std::uint8_t {
  Max,  // trigger lengthens ToTE (TET-CC, TET-MD)
  Min,  // trigger shortens ToTE (TET-ZBL, TET-RSB)
};

/// Vote-margin confidence in [0, 1]: (top votes − runner-up votes) /
/// `ballots`; 0 with no ballots. ArgmaxAnalyzer::confidence() applies it to
/// the per-value batch votes, TET-KASLR to its per-slot round votes.
[[nodiscard]] double vote_margin(std::span<const std::uint32_t> votes,
                                 std::size_t ballots);

class ArgmaxAnalyzer {
 public:
  explicit ArgmaxAnalyzer(Polarity polarity) : polarity_(polarity) {}

  /// Record one probe of `test_value` in the current batch.
  /// Samples of 0 (failed probes) are ignored.
  void add(int test_value, std::uint64_t tote);

  /// Close the current batch: the batch's extreme test value receives one
  /// vote. Batches with no samples are ignored.
  void end_batch();

  /// The decoded byte: the test value with the most batch votes.
  [[nodiscard]] int decode() const;

  /// Alternative decode: extreme of the per-value *mean* ToTE. More robust
  /// when rare predictor artefacts (e.g. a taken-trained follower value)
  /// produce occasional outliers that steal batch votes.
  [[nodiscard]] int decode_by_mean() const;

  /// Margin confidence of decode_by_mean() in [0, 1]: (top mean − runner-up
  /// mean) / (top mean − bottom mean), extremes per polarity, over test
  /// values with samples. 1 means one value stands clear of a flat field;
  /// 0 means the means are flat (no signal) or fewer than two values have
  /// samples.
  [[nodiscard]] double mean_confidence() const;

  /// Vote-margin confidence of decode() in [0, 1]: (top votes − runner-up
  /// votes) / batches. 1 means every batch voted the same value; 0 means a
  /// tie (or no batches yet). This is what the adaptive escalation loop
  /// thresholds against — under noise the margin grows with batches when a
  /// true signal exists and stays near 0 when it does not.
  [[nodiscard]] double confidence() const;

  [[nodiscard]] const std::array<std::uint32_t, 256>& votes() const noexcept {
    return votes_;
  }
  /// ToTE frequency histogram across all samples (Fig. 1b top).
  [[nodiscard]] const stats::Histogram& tote_histogram() const noexcept {
    return hist_;
  }
  /// Per-test-value mean ToTE (Fig. 1b argmax panels).
  [[nodiscard]] std::array<double, 256> mean_tote_by_value() const;

  [[nodiscard]] std::size_t batches() const noexcept { return batches_; }
  void reset();

 private:
  Polarity polarity_;
  std::array<std::uint32_t, 256> votes_{};
  stats::Histogram hist_;
  std::array<std::uint64_t, 256> sum_{};
  std::array<std::uint32_t, 256> count_{};

  // Current batch extreme.
  bool batch_has_sample_ = false;
  int batch_arg_ = 0;
  std::uint64_t batch_extreme_ = 0;
  std::size_t batches_ = 0;
};

}  // namespace whisper::core

#include "core/analyzer.h"

#include <algorithm>

namespace whisper::core {

void ArgmaxAnalyzer::add(int test_value, std::uint64_t tote) {
  if (tote == 0 || test_value < 0 || test_value > 255) return;
  hist_.add(static_cast<std::int64_t>(tote));
  sum_[static_cast<std::size_t>(test_value)] += tote;
  ++count_[static_cast<std::size_t>(test_value)];

  const bool better =
      !batch_has_sample_ ||
      (polarity_ == Polarity::Max ? tote > batch_extreme_
                                  : tote < batch_extreme_);
  if (better) {
    batch_has_sample_ = true;
    batch_extreme_ = tote;
    batch_arg_ = test_value;
  }
}

void ArgmaxAnalyzer::end_batch() {
  if (batch_has_sample_) {
    ++votes_[static_cast<std::size_t>(batch_arg_)];
    ++batches_;
  }
  batch_has_sample_ = false;
  batch_extreme_ = 0;
  batch_arg_ = 0;
}

int ArgmaxAnalyzer::decode() const {
  return static_cast<int>(
      std::max_element(votes_.begin(), votes_.end()) - votes_.begin());
}

double vote_margin(std::span<const std::uint32_t> votes,
                   std::size_t ballots) {
  if (ballots == 0) return 0.0;
  std::uint32_t top = 0, second = 0;
  for (const std::uint32_t v : votes) {
    if (v > top) {
      second = top;
      top = v;
    } else if (v > second) {
      second = v;
    }
  }
  return static_cast<double>(top - second) / static_cast<double>(ballots);
}

double ArgmaxAnalyzer::confidence() const {
  return vote_margin(votes_, batches_);
}

int ArgmaxAnalyzer::decode_by_mean() const {
  const auto means = mean_tote_by_value();
  int best = 0;
  bool have = false;
  for (int tv = 0; tv < 256; ++tv) {
    const auto i = static_cast<std::size_t>(tv);
    if (count_[i] == 0) continue;
    if (!have) {
      best = tv;
      have = true;
      continue;
    }
    const auto b = static_cast<std::size_t>(best);
    const bool better = polarity_ == Polarity::Max
                            ? means[i] > means[b]
                            : means[i] < means[b];
    if (better) best = tv;
  }
  return best;
}

double ArgmaxAnalyzer::mean_confidence() const {
  const auto means = mean_tote_by_value();
  bool have = false;
  double top = 0.0, second = 0.0, bottom = 0.0;
  for (std::size_t i = 0; i < 256; ++i) {
    if (count_[i] == 0) continue;
    // Fold Min polarity into Max by negating: "top" is always the winner.
    const double m = polarity_ == Polarity::Max ? means[i] : -means[i];
    if (!have) {
      have = true;
      top = second = bottom = m;
      continue;
    }
    if (m > top) {
      second = top;
      top = m;
    } else if (m > second || second == top) {
      second = m;
    }
    bottom = std::min(bottom, m);
  }
  if (!have || top == bottom) return 0.0;
  return (top - second) / (top - bottom);
}

std::array<double, 256> ArgmaxAnalyzer::mean_tote_by_value() const {
  std::array<double, 256> out{};
  for (std::size_t i = 0; i < 256; ++i)
    out[i] = count_[i] ? static_cast<double>(sum_[i]) /
                             static_cast<double>(count_[i])
                       : 0.0;
  return out;
}

void ArgmaxAnalyzer::reset() {
  votes_.fill(0);
  hist_.clear();
  sum_.fill(0);
  count_.fill(0);
  batch_has_sample_ = false;
  batch_extreme_ = 0;
  batch_arg_ = 0;
  batches_ = 0;
}

}  // namespace whisper::core

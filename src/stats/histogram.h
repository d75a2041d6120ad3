// Frequency histogram over integer samples (cycle counts).
//
// Used to reproduce the ToTE frequency plot of Figure 1b and for
// threshold calibration in the KASLR attack.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace whisper::stats {

class Histogram {
 public:
  Histogram() = default;

  void add(std::int64_t value, std::uint64_t count = 1);
  void merge(const Histogram& other);
  void clear();

  /// Total number of samples recorded.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }

  /// Count recorded at exactly `value`.
  [[nodiscard]] std::uint64_t count(std::int64_t value) const;

  [[nodiscard]] std::int64_t min() const;
  [[nodiscard]] std::int64_t max() const;
  /// Value with the highest frequency (smallest such value on ties).
  [[nodiscard]] std::int64_t mode() const;
  [[nodiscard]] double mean() const;
  /// p in [0,1]; returns the smallest value v with CDF(v) >= p.
  [[nodiscard]] std::int64_t percentile(double p) const;

  /// Sorted (value, count) pairs.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>> buckets()
      const;

  /// Fixed-width ASCII rendering, `rows` buckets, for table/figure benches.
  [[nodiscard]] std::string ascii(int rows = 16, int width = 50) const;

  bool operator==(const Histogram&) const = default;

 private:
  std::map<std::int64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace whisper::stats

// Named-metric registry.
//
// One interface over the two kinds of numbers the simulator produces —
// uarch::Pmu hardware-event counters and stats summaries/histograms — so a
// bench or the CLI can export everything it measured to one JSON or CSV
// file without each call site inventing its own format.
//
// Three metric kinds, mirroring the usual monitoring vocabulary:
//   counter    monotone uint64 (PMU events, probe counts); merge = sum
//   gauge      point-in-time double (rates, thresholds); merge = overwrite
//   histogram  stats::Histogram (ToTE distributions); merge = bucket merge
//
// Metrics live in name-sorted maps, so export order — and therefore the
// output byte stream — is deterministic and independent of registration
// order. merge() folds another registry in; the runner merges per-trial
// registries in trial-index order, making --jobs N output bit-identical to
// sequential.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/topdown.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "uarch/pmu.h"

namespace whisper::obs {

class MetricsRegistry {
 public:
  // --- registration -------------------------------------------------------
  void add_counter(const std::string& name, std::uint64_t delta = 1);
  void set_counter(const std::string& name, std::uint64_t value);
  void set_gauge(const std::string& name, double value);
  void add_histogram(const std::string& name, const stats::Histogram& h);
  void add_sample(const std::string& name, std::int64_t value);

  /// Register one counter per PMU event under `prefix` + event name
  /// (e.g. "pmu.UOPS_ISSUED.ANY"), adding to any existing values. Pass a
  /// pmu_delta() to import one trial's worth.
  void import_pmu(const uarch::PmuSnapshot& snap,
                  const std::string& prefix = "pmu.");

  /// Set the top-down buckets as counters `prefix` + "topdown." +
  /// total_cycles/retiring/bad_speculation/frontend_bound/backend_bound.
  void import_topdown(const TopDown& td, const std::string& prefix = "");

  /// Register a stats::Summary as gauges `prefix`.n/.mean/.stdev/.min/
  /// .max/.median.
  void import_summary(const std::string& prefix, const stats::Summary& s);

  // --- queries ------------------------------------------------------------
  [[nodiscard]] bool has_counter(const std::string& name) const;
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
  [[nodiscard]] const stats::Histogram& histogram(
      const std::string& name) const;
  /// All metric names, sorted, across the three kinds.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] bool empty() const noexcept;

  // --- merge / export -----------------------------------------------------
  /// Fold `other` in: counters add, gauges overwrite (last writer wins —
  /// callers merge in index order), histograms merge buckets.
  void merge(const MetricsRegistry& other);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{total,buckets}}}
  [[nodiscard]] std::string to_json() const;
  /// "name,kind,field,value" rows; histograms expand to summary fields plus
  /// one bucket row per distinct value.
  [[nodiscard]] std::string to_csv() const;

  /// Write to_json() — or to_csv() when `path` ends in ".csv", the
  /// --metrics-out convention — through stats::write_text_file().
  bool write_file(const std::string& path) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, stats::Histogram> histograms_;
};

}  // namespace whisper::obs

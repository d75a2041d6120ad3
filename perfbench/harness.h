// Shared plumbing of the whisper benchmark: run arguments, the report a
// workload fills, the in-memory span log of traced runs, and host clocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace of the traced run's spans
  int jobs = 1;           // min(4, nproc): sweep jobs or daemon workers
  /// Run only the set-up and report its time from process start as
  /// setup_s; run.py starts a few such processes for a median.
  bool setup_only = false;
};

/// Host steady clock in nanoseconds since the process started.
std::int64_t now_ns();
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();


/// What one workload run measured and checked. `fail()` records a failed
/// output check, which makes the run exit non-zero.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& what) { failures.push_back(what); }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  /// A human-readable line on stdout, ahead of the final JSON line.
  static void note(const std::string& line);

  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;  // trials and requests the run scheduled
  std::uint64_t failed = 0;     // of those, failed or refused
};

/// In-memory span recorder for traced runs. Each thread appends to its own
/// buffer (registered once, under the lock), so recording takes no lock.
/// Read the results only once every recording thread is idle.
class SpanLog {
 public:
  struct Buffer {
    int thread = 0;
    std::vector<Span> spans;
  };

  /// The calling thread's buffer in this log.
  Buffer& local();

  /// Self time in seconds, summed per span name, or per layer: the name's
  /// prefix before the first '.' ("os", "runner", "core", ...).
  [[nodiscard]] std::map<std::string, double> self_seconds(bool by_layer) const;

  /// Write every span (at most `cap`) as a Chrome trace-event file, each
  /// with its self time in args. False when the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          std::size_t cap = 50000) const;

 private:
  std::mutex mu_;
  std::deque<Buffer> buffers_;
};

/// One note line listing each entry's share of the entries' total.
void note_shares(const std::string& title,
                 const std::map<std::string, double>& amounts);

void run_sweep(const Args& args, Report& rep);
void run_matrix(const Args& args, Report& rep);
void run_serve(const Args& args, Report& rep);
void run_dist(const Args& args, Report& rep);

}  // namespace perfbench

// Shared helpers for the experiment-reproduction harnesses.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa.h"
#include "obs/metrics.h"
#include "stats/parse.h"
#include "stats/rng.h"

namespace whisper::bench {

inline std::vector<std::uint8_t> random_bytes(std::size_t n,
                                              std::uint64_t seed) {
  stats::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

inline std::array<std::uint64_t, isa::kNumRegs> regs_with(
    std::initializer_list<std::pair<isa::Reg, std::uint64_t>> kv) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  for (const auto& [r, v] : kv) regs[static_cast<std::size_t>(r)] = v;
  return regs;
}

inline void heading(const std::string& title) {
  std::printf("\n%s\n%s\n", title.c_str(),
              std::string(title.size(), '=').c_str());
}

inline void subheading(const std::string& title) {
  std::printf("\n%s\n%s\n", title.c_str(),
              std::string(title.size(), '-').c_str());
}

inline const char* mark(bool ok) { return ok ? "✓" : "✗"; }

/// Flags shared by the runner-backed harnesses:
///   --jobs N           worker threads (0/auto = hardware concurrency;
///                      default 1, the sequential reference — results are
///                      identical either way, see whisper::runner)
///   --progress         per-trial completion lines on stderr
///   --json PATH        write the run's trajectory as JSON
///   --trace-out PATH   write a Chrome trace-event JSON (load in
///                      chrome://tracing or ui.perfetto.dev) of a
///                      representative execution — see each harness for
///                      what it traces
///   --metrics-out PATH write everything the harness measured as a
///                      named-metric JSON registry (obs::MetricsRegistry);
///                      a .csv extension selects CSV instead
///
/// Fault-tolerance knobs (whisper::runner's recovery layer — see
/// docs/ARCHITECTURE.md "Failure semantics & fault injection"):
///   --retries R                extra attempts per failed trial (default 0)
///   --trial-cycle-budget C     simulated-cycle cap per trial attempt
///   --trial-wall-budget SECS   host wall-clock watchdog per trial attempt
///   --verify-reset             digest-check pooled machines after reset()
///   --fault-plan PLAN          seeded fault injection, e.g.
///                              "throw@2;corrupt@5" (src/fault/fault.h)
struct HarnessArgs {
  int jobs = 1;
  bool progress = false;
  std::string json;
  std::string trace_out;
  std::string metrics_out;
  int retries = 0;
  std::uint64_t trial_cycle_budget = 0;
  double trial_wall_budget = 0.0;
  bool verify_reset = false;
  std::string fault_plan;
};

/// The value of integer flag `flag` (stats::parse_uint: the whole token,
/// decimal or 0x hex); anything else exits with status 2.
template <typename T>
inline T number_arg(const char* prog, const std::string& flag,
                    const char* text) {
  if (const std::optional<T> v = stats::parse_uint<T>(text)) return *v;
  std::fprintf(stderr, "%s: %s takes a decimal or 0x-hex integer, got '%s'\n",
               prog, flag.c_str(), text);
  std::exit(2);
}

inline HarnessArgs parse_harness_args(int argc, char** argv) {
  HarnessArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--jobs" && i + 1 < argc) {
      const std::string v = argv[++i];
      out.jobs = (v == "auto") ? 0 : number_arg<int>(argv[0], a, argv[i]);
    } else if (a == "--progress") {
      out.progress = true;
    } else if (a == "--json" && i + 1 < argc) {
      out.json = argv[++i];
    } else if (a == "--trace-out" && i + 1 < argc) {
      out.trace_out = argv[++i];
    } else if (a == "--metrics-out" && i + 1 < argc) {
      out.metrics_out = argv[++i];
    } else if (a == "--retries" && i + 1 < argc) {
      out.retries = number_arg<int>(argv[0], a, argv[++i]);
    } else if (a == "--trial-cycle-budget" && i + 1 < argc) {
      out.trial_cycle_budget =
          number_arg<std::uint64_t>(argv[0], a, argv[++i]);
    } else if (a == "--trial-wall-budget" && i + 1 < argc) {
      out.trial_wall_budget = std::atof(argv[++i]);
    } else if (a == "--verify-reset") {
      out.verify_reset = true;
    } else if (a == "--fault-plan" && i + 1 < argc) {
      out.fault_plan = argv[++i];
    }
  }
  return out;
}

/// Copy the fault-tolerance knobs onto a runner::RunSpec (templated so this
/// header needs no runner dependency; any struct with the same field names
/// works).
template <typename Spec>
inline void apply_fault_args(Spec& spec, const HarnessArgs& a) {
  spec.retries = a.retries;
  spec.trial_cycle_budget = a.trial_cycle_budget;
  spec.trial_wall_budget = a.trial_wall_budget;
  spec.verify_reset = a.verify_reset;
  spec.fault_plan = a.fault_plan;
}

/// --metrics-out convention: the extension picks the format.
inline bool metrics_path_is_csv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

inline bool write_metrics(const obs::MetricsRegistry& reg,
                          const std::string& path) {
  const bool ok = metrics_path_is_csv(path) ? reg.write_csv_file(path)
                                            : reg.write_json_file(path);
  if (ok) std::printf("\n(metrics written to %s)\n", path.c_str());
  return ok;
}

}  // namespace whisper::bench

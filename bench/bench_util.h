// Shared helpers for the experiment-reproduction harnesses.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/attacks/registry.h"
#include "isa/isa.h"
#include "obs/metrics.h"
#include "runner/spec_schema.h"
#include "stats/flags.h"
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

/// What the flags every harness shares set; add_harness_flags() adds them
/// as rows of the harness's own table. The fault-tolerance knobs are the
/// RunSpec schema's rows and land in `spec`: a runner-backed harness builds
/// its cells from a copy of it.
struct HarnessFlags {
  int jobs = 1;
  bool progress = false;
  std::string json;
  std::string trace_out;
  std::string metrics_out;
  runner::RunSpec spec;
};

inline void add_harness_flags(stats::Flags& f, HarnessFlags& h) {
  f.add("jobs", stats::Flags::Arity::kValue, "N",
        "worker threads; 0/auto = all cores (default 1, the sequential "
        "reference); results are identical for any N",
        [&h](std::string_view t) {
          h.jobs = t == "auto" ? 0 : stats::parse_as<int>(t);
        });
  f.toggle("progress", "per-trial completion lines on stderr", h.progress);
  f.value("json", "PATH", "write the run's trajectory as JSON", h.json);
  f.value("trace-out", "PATH",
          "write a Chrome trace-event JSON of a representative execution "
          "(chrome://tracing, ui.perfetto.dev)",
          h.trace_out);
  f.value("metrics-out", "PATH",
          "write everything measured as an obs::MetricsRegistry JSON (CSV "
          "for a .csv PATH)",
          h.metrics_out);
  for (const char* field : {"retries", "trial_cycle_budget",
                            "trial_wall_budget", "verify_reset", "fault_plan"})
    runner::add_flag(f, h.spec, field);
}

/// The shared rows alone: the table of a harness with no flags of its own.
inline HarnessFlags parse_harness_flags(int argc, char** argv,
                                        std::string prog) {
  HarnessFlags h;
  stats::Flags f(std::move(prog));
  add_harness_flags(f, h);
  f.parse(argc, argv);
  return h;
}

/// Flags::list() check: `a` is a core::attack_registry() name.
inline void known_attack(const std::string& a) {
  if (core::find_attack(a) == nullptr)
    throw std::invalid_argument("names no registered attack '" + a + "'");
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

// Perf baseline: the snapshot/reset trial fast path, fresh construction,
// and the fast-forward execution core.
//
// For each requested registry attack this harness times the same RunSpec
// four ways:
//   fresh_jobs1  — reuse_machine off, fast-forward off, --jobs 1 (the
//                  everything-structural floor)
//   reset_jobs1  — pooled snapshot reset, fast-forward off, --jobs 1 (the
//                  PR-4 baseline the fast-forward speedup is measured from)
//   ff_jobs1     — pooled reset + fast-forward, --jobs 1 (the shipping
//                  default path)
//   reset_jobsN  — pooled reset + fast-forward at the requested --jobs
// and reports host trials/sec, simulated cycles/sec, the reset-vs-fresh
// speedup and the fast-forward-vs-reset speedup. The ff_jobs1 cell also
// carries the core's fast-forward counters (Core::fast_forward_stats()),
// taken by replaying its trials on one private machine: spans, cycles
// skipped vs stepped, and bail-outs by the stage that could act. Results (bytes decoded,
// probes, ToTE, PMU) are bit-identical across every cell —
// tests/test_machine_reset.cpp and tests/test_fast_forward.cpp pin that —
// so this table is purely about host throughput; the --json trajectory
// (BENCH_perf.json under ctest) is the regression record for it.
// docs/PERFORMANCE.md explains how to read each column.
//
// `perf_baseline --help` lists its flags. --no-fast-forward runs the
// ff_jobs1 and reset_jobsN cells structurally too: the identity control,
// where ff_jobs1 ≈ reset_jobs1.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/attacks/registry.h"
#include "os/machine.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "stats/json.h"

using namespace whisper;

namespace {

/// One timed fan-out, reduced to rates. Wall time comes from the
/// RunResult's own fan-out clock, so the numbers cover exactly the trial
/// loop (construction/reset included, merge excluded).
struct Measurement {
  double wall_seconds = 0.0;
  double trials_per_sec = 0.0;
  double sim_cycles_per_sec = 0.0;
};

Measurement measure(runner::RunSpec spec, bool reuse, bool ff, int jobs,
                    bool progress) {
  spec.reuse_machine = reuse;
  spec.fast_forward = ff;
  runner::Executor ex(jobs);
  const runner::RunResult r = runner::run(spec, ex, progress);
  Measurement m;
  m.wall_seconds = r.wall_seconds;
  std::uint64_t sim_cycles = 0;
  for (const runner::TrialResult& t : r.trials) sim_cycles += t.cycles;
  if (r.wall_seconds > 0.0) {
    m.trials_per_sec =
        static_cast<double>(r.trials.size()) / r.wall_seconds;
    m.sim_cycles_per_sec = static_cast<double>(sim_cycles) / r.wall_seconds;
  }
  return m;
}

using FastForwardStats = uarch::Core::FastForwardStats;

/// Fast-forward counters over the trials of `spec`, replayed in order on
/// one pooled-style machine (construct, snapshot, reset per trial) — the
/// same trials the ff_jobs1 cell times.
FastForwardStats ff_counters(runner::RunSpec spec, bool ff) {
  spec.fast_forward = ff;
  os::Machine m(runner::machine_options(spec, spec.base_seed));
  m.snapshot();
  const FastForwardStats before = m.core().fast_forward_stats();
  for (int i = 0; i < spec.trials; ++i)
    (void)runner::run_trial(
        spec, runner::trial_seed(spec.base_seed, static_cast<std::uint64_t>(i)),
        m);
  const FastForwardStats& a = m.core().fast_forward_stats();
  return {a.attempts - before.attempts,
          a.spans - before.spans,
          a.cycles_skipped - before.cycles_skipped,
          a.cycles_stepped - before.cycles_stepped,
          a.cycles_advanced - before.cycles_advanced,
          a.bail_retire - before.bail_retire,
          a.bail_complete - before.bail_complete,
          a.bail_issue - before.bail_issue,
          a.bail_alloc - before.bail_alloc,
          a.bail_fetch - before.bail_fetch,
          a.bail_noise - before.bail_noise,
          a.bail_smt - before.bail_smt};
}

void json_ff_counters(runner::JsonWriter& w, const FastForwardStats& s) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"attempts", s.attempts},
      {"spans", s.spans},
      {"cycles_skipped", s.cycles_skipped},
      {"cycles_stepped", s.cycles_stepped},
      {"cycles_advanced", s.cycles_advanced},
      {"bail_retire", s.bail_retire},
      {"bail_complete", s.bail_complete},
      {"bail_issue", s.bail_issue},
      {"bail_alloc", s.bail_alloc},
      {"bail_fetch", s.bail_fetch},
      {"bail_noise", s.bail_noise},
      {"bail_smt", s.bail_smt}};
  w.begin_object();
  for (const auto& [name, value] : fields) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
}

struct Row {
  std::string attack;
  Measurement fresh1;   // fresh construction, ff off, --jobs 1
  Measurement reset1;   // pooled reset, ff off, --jobs 1
  Measurement ff1;      // pooled reset + fast-forward, --jobs 1
  Measurement reset_n;  // pooled reset + fast-forward, --jobs N
  FastForwardStats ff1_counters;  // the ff_jobs1 trials, replayed
  [[nodiscard]] double speedup() const {
    return fresh1.trials_per_sec > 0.0
               ? reset1.trials_per_sec / fresh1.trials_per_sec
               : 0.0;
  }
  [[nodiscard]] double ff_speedup() const {
    return reset1.trials_per_sec > 0.0
               ? ff1.trials_per_sec / reset1.trials_per_sec
               : 0.0;
  }
};

void json_measurement(runner::JsonWriter& w, const Measurement& m,
                      const FastForwardStats* counters = nullptr) {
  w.begin_object();
  w.key("wall_seconds");
  w.value(m.wall_seconds);
  w.key("trials_per_sec");
  w.value(m.trials_per_sec);
  w.key("sim_cycles_per_sec");
  w.value(m.sim_cycles_per_sec);
  if (counters) {
    w.key("fast_forward");
    json_ff_counters(w, *counters);
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessFlags args;
  std::vector<std::string> attacks = core::attack_names();
  runner::RunSpec& knobs = args.spec;
  knobs.trials = 16;
  knobs.payload_bytes = 2;
  knobs.batches = 1;
  knobs.base_seed = 0xbe9cULL;
  stats::Flags flags("perf_baseline");
  bench::add_harness_flags(flags, args);
  flags.list("attacks", "comma-separated registry names (default: all)",
             attacks, bench::known_attack);
  runner::add_flag(flags, knobs, "trials", "",
                   "trials per measurement (default 16)");
  runner::add_flag(flags, knobs, "payload_bytes", "",
                   "payload bytes per channel trial (default 2)");
  runner::add_flag(flags, knobs, "batches", "",
                   "argmax batches per byte; kaslr probe rounds (default 1)");
  runner::add_flag(flags, knobs, "fast_forward", "no-fast-forward",
                   "keep the ff and jobs-N cells on the structural path too");
  runner::add_flag(flags, knobs, "fast_forward");
  flags.parse(argc, argv);
  const bool fast_forward = knobs.fast_forward;
  const int jobs_n = runner::resolve_jobs(args.jobs);

  bench::heading("Perf baseline — fast-forward core and machine reset fast "
                 "path vs fresh construction");

  std::vector<Row> rows;
  for (const std::string& attack : attacks) {
    runner::RunSpec spec = knobs;
    spec.attack = attack;

    Row row;
    row.attack = attack;
    row.fresh1 = measure(spec, /*reuse=*/false, /*ff=*/false, /*jobs=*/1,
                         args.progress);
    row.reset1 = measure(spec, /*reuse=*/true, /*ff=*/false, /*jobs=*/1,
                         args.progress);
    row.ff1 = measure(spec, /*reuse=*/true, fast_forward, /*jobs=*/1,
                      args.progress);
    row.ff1_counters = ff_counters(spec, fast_forward);
    row.reset_n = jobs_n == 1
                      ? row.ff1
                      : measure(spec, /*reuse=*/true, fast_forward,
                                jobs_n, args.progress);
    rows.push_back(row);
  }

  std::printf("%-7s %11s %11s %11s %8s %8s %11s %11s\n", "attack",
              "fresh t/s", "reset t/s", "ff t/s", "reset-x", "ff-x",
              "Mcyc/s ff",
              ("ff t/s j" + std::to_string(jobs_n)).c_str());
  std::printf("%s\n", std::string(84, '-').c_str());
  for (const Row& r : rows) {
    std::printf("%-7s %11.1f %11.1f %11.1f %7.2fx %7.2fx %11.1f %11.1f\n",
                r.attack.c_str(), r.fresh1.trials_per_sec,
                r.reset1.trials_per_sec, r.ff1.trials_per_sec, r.speedup(),
                r.ff_speedup(), r.ff1.sim_cycles_per_sec / 1e6,
                r.reset_n.trials_per_sec);
  }
  std::printf("\n(%d trials per cell, %zu payload bytes, %d batches; every "
              "cell produces bit-identical\n results — the deltas are machine "
              "construction vs snapshot reset, and the\n cycle-by-cycle "
              "pipeline vs the fast-forward core%s)\n",
              knobs.trials, knobs.payload_bytes, knobs.batches,
              fast_forward ? "" : " [--no-fast-forward: ff cells ran "
                                       "structurally]");

  if (!args.json.empty()) {
    runner::JsonWriter w;
    w.begin_object();
    w.key("trials");
    w.value(knobs.trials);
    w.key("payload_bytes");
    w.value(static_cast<std::uint64_t>(knobs.payload_bytes));
    w.key("batches");
    w.value(knobs.batches);
    w.key("jobs");
    w.value(jobs_n);
    w.key("attacks");
    w.begin_array();
    for (const Row& r : rows) {
      w.begin_object();
      w.key("attack");
      w.value(r.attack);
      w.key("fresh_jobs1");
      json_measurement(w, r.fresh1);
      w.key("reset_jobs1");
      json_measurement(w, r.reset1);
      w.key("ff_jobs1");
      json_measurement(w, r.ff1, &r.ff1_counters);
      w.key("reset_jobsN");
      json_measurement(w, r.reset_n);
      w.key("speedup");
      w.value(r.speedup());
      w.key("ff_speedup");
      w.value(r.ff_speedup());
      w.end_object();
    }
    w.end_array();
    w.end_object();

    const std::string body = w.str();
    if (!stats::json_is_valid(body)) {
      std::fprintf(stderr, "perf_baseline: generated JSON is invalid\n");
      return 1;
    }
    std::FILE* f = std::fopen(args.json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "perf_baseline: cannot open %s for writing\n",
                   args.json.c_str());
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\n(perf trajectory written to %s)\n", args.json.c_str());
  }

  if (!args.metrics_out.empty()) {
    obs::MetricsRegistry reg;
    for (const Row& r : rows) {
      reg.set_gauge(r.attack + ".fresh_jobs1.trials_per_sec",
                    r.fresh1.trials_per_sec);
      reg.set_gauge(r.attack + ".reset_jobs1.trials_per_sec",
                    r.reset1.trials_per_sec);
      reg.set_gauge(r.attack + ".ff_jobs1.trials_per_sec",
                    r.ff1.trials_per_sec);
      reg.set_gauge(r.attack + ".reset_jobsN.trials_per_sec",
                    r.reset_n.trials_per_sec);
      reg.set_gauge(r.attack + ".speedup", r.speedup());
      reg.set_gauge(r.attack + ".ff_speedup", r.ff_speedup());
    }
    bench::write_metrics(reg, args.metrics_out);
  }
  return 0;
}

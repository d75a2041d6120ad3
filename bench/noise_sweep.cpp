// Noise sweep: channel robustness under interference, fixed vs adaptive.
//
// Walks a noise profile (default: desktop) through intensity steps and runs
// each requested attack twice per step — once with its fixed default batch
// count and once with adaptive escalation (batches double until the decode
// confidence clears the threshold or the budget caps it). The table shows
// where the fixed configuration starts mis-decoding and how many extra
// probes the adaptive loop spends to stay below its error target; `gave_up`
// counts bytes reported as unrecoverable instead of silently wrong.
//
// Every cell is a whisper::runner::RunSpec fanned out through one Executor,
// so `--jobs N` parallelises the sweep with results bit-identical to
// `--jobs 1`. The --json trajectory deliberately contains no wall-clock
// fields for the same reason: its bytes are identical whatever --jobs is.
// `noise_sweep --help` lists its flags.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/attacks/registry.h"
#include "noise/noise.h"
#include "runner/json_writer.h"
#include "runner/runner.h"

using namespace whisper;

namespace {

struct Cell {
  std::string attack;
  double intensity = 0.0;
  bool adaptive = false;
  runner::RunResult result;
};

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessFlags args;
  std::string profile = "desktop";
  std::vector<std::string> attacks = {"cc", "md", "rsb"};
  int steps = 4;
  runner::RunSpec& knobs = args.spec;
  knobs.trials = 3;
  knobs.payload_bytes = 16;
  stats::Flags flags("noise_sweep");
  bench::add_harness_flags(flags, args);
  flags.value("noise-profile", "P",
              "preset to sweep: quiet, desktop (default), noisy-server",
              profile);
  flags.list("attacks", "comma-separated registry names (default cc,md,rsb)",
             attacks, bench::known_attack);
  flags.value("steps", "N",
              "intensity steps 0, 1/N, ..., 1 x the preset (default 4)",
              steps);
  runner::add_flag(flags, knobs, "trials", "", "trials per cell (default 3)");
  runner::add_flag(flags, knobs, "payload_bytes", "",
                   "payload bytes per trial (default 16)");
  runner::add_flag(flags, knobs, "batch_budget");
  runner::add_flag(flags, knobs, "confidence_threshold", "threshold",
                   "adaptive confidence threshold in [0, 1] (default 0.5)");
  flags.parse(argc, argv);

  const auto base = noise::NoiseProfile::by_name(profile);
  if (!base || !base->enabled()) {
    std::fprintf(stderr,
                 "noise_sweep: --noise-profile must be a non-empty preset "
                 "(quiet|desktop|noisy-server), got '%s'\n",
                 profile.c_str());
    return 2;
  }

  bench::heading("Noise sweep — " + base->name +
                 " profile, fixed vs adaptive decoding");

  // Cell grid: attack × intensity step × {fixed, adaptive}, all specs
  // through one run_many so any --jobs fills the pool.
  std::vector<Cell> cells;
  std::vector<runner::RunSpec> specs;
  for (const std::string& attack : attacks) {
    for (int s = 0; s <= steps; ++s) {
      const double factor = steps > 0 ? static_cast<double>(s) / steps : 1.0;
      for (const bool adaptive : {false, true}) {
        runner::RunSpec spec = knobs;
        spec.attack = attack;
        spec.base_seed = 0x5109eULL;
        spec.noise = base->scaled(factor);
        spec.payload_seed = 0xbeefULL;
        if (attack == "kaslr") spec.batches = 2;  // sweep rounds
        spec.adaptive = adaptive;
        cells.push_back({attack, factor, adaptive, {}});
        specs.push_back(spec);
      }
    }
  }

  runner::Executor ex(args.jobs);
  const std::vector<runner::RunResult> results =
      runner::run_many(specs, ex, args.progress);
  for (std::size_t i = 0; i < cells.size(); ++i)
    cells[i].result = results[i];

  std::printf("%-7s %-10s %-9s %-8s %-10s %-8s %-10s\n", "attack",
              "intensity", "mode", "err%", "probes/B", "gave_up", "conf");
  std::printf("%s\n", std::string(68, '-').c_str());
  for (const Cell& c : cells) {
    std::printf("%-7s %-10.2f %-9s %-8.2f %-10.1f %-8zu %-10.2f\n",
                c.attack.c_str(), c.intensity,
                c.adaptive ? "adaptive" : "fixed",
                100.0 * c.result.error_rate(), c.result.probes_per_byte(),
                c.result.total_gave_up, c.result.confidence.mean);
  }
  std::printf("\n(fixed = the attack's default batch count; adaptive "
              "escalates until the vote margin\n clears %.2f or the budget "
              "caps it — gave_up counts bytes flagged unrecoverable)\n",
              knobs.confidence_threshold);

  if (!args.json.empty()) {
    // Deterministic trajectory: no wall-clock, no job count — bytes are
    // identical for any --jobs (the tier-2 check depends on this).
    runner::JsonWriter w;
    w.begin_object();
    w.key("profile");
    w.value(base->name);
    w.key("steps");
    w.value(steps);
    w.key("trials");
    w.value(knobs.trials);
    w.key("payload_bytes");
    w.value(static_cast<std::uint64_t>(knobs.payload_bytes));
    w.key("threshold");
    w.value(knobs.confidence_threshold);
    w.key("cells");
    w.begin_array();
    for (const Cell& c : cells) {
      w.begin_object();
      w.field("attack", c.attack);
      w.field("intensity", c.intensity);
      w.field("adaptive", c.adaptive);
      runner::write_cell_summary(w, c.result);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!stats::write_text_file(args.json, w.str() + "\n")) return 1;
    std::printf("\n(sweep trajectory written to %s)\n", args.json.c_str());
  }

  if (!args.metrics_out.empty()) {
    obs::MetricsRegistry reg;
    for (const Cell& c : cells) {
      char prefix[96];
      std::snprintf(prefix, sizeof prefix, "%s.i%02d.%s.", c.attack.c_str(),
                    static_cast<int>(100.0 * c.intensity + 0.5),
                    c.adaptive ? "adaptive" : "fixed");
      reg.merge(runner::to_metrics(c.result, prefix));
    }
    if (!bench::write_metrics(reg, args.metrics_out)) return 1;
  }
  return 0;
}

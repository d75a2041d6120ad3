// whisper_cli — interactive playground for the library.
//
//   whisper_cli tote    [--cpu N] [--trigger|--no-trigger] [--trace]
//                       [--trace-out PATH] [--metrics-out PATH]
//   whisper_cli leak    [--cpu N] [--secret STRING] [--attack NAME]
//                       [--defense SPEC]... [--noise PROFILE] [--adaptive]
//                       [--confidence C] [--budget B] [--trace-out PATH]
//                       [--metrics-out PATH]
//   whisper_cli kaslr   [--cpu N] [--defense SPEC]... [--seed S]
//                       [--trials T] [--jobs J] [--json PATH]
//                       [--noise PROFILE] [--adaptive]
//                       [--retries R] [--trial-cycle-budget C]
//                       [--trial-wall-budget SECONDS] [--fault-plan PLAN]
//                       [--verify-reset] [--no-fast-forward]
//                       [--trace-out PATH] [--metrics-out PATH]
//   whisper_cli chaos   [--attack NAME] [--defense SPEC]... [--cpu N]
//                       [--trials T] [--jobs J]
//                       [--seed S] [--retries R] [--fault-plan PLAN]
//                       [--trial-cycle-budget C] [--json PATH]
//   whisper_cli matrix  [--jobs J]
//   whisper_cli sweep   --endpoints LIST [--attack NAME] [--cpu N]
//                       [--trials T] [--seed S] [--defense SPEC]...
//                       [--noise PROFILE] [--chunk C] [--deadline-ms MS]
//                       [--connect-timeout-ms MS] [--failures F]
//                       [--flaky-plan PLAN] [--verify] [--json PATH]
//   whisper_cli attacks                 (also: --list-attacks anywhere)
//   whisper_cli defenses                (registered defenses + parameters)
//   whisper_cli models
//
// --defense is repeatable and takes a defense::registry() spec,
// `name[:key=value]...` — e.g. `--defense kpti --defense window:depth=8`.
// `whisper_cli defenses` lists the registry. The retired --kpti / --flare /
// --fgkaslr aliases, and --rounds, are refused with exit status 2 rather
// than ignored, since ignoring them would run a different cell.
//
// Integer values (--seed, --trials, --jobs, ...) are decimal or 0x hex;
// a token that is not wholly a number exits with status 2.
//
// `chaos` is the fault-tolerance self-test: it runs the same spec twice —
// once clean, once under a seeded --fault-plan (see src/fault/fault.h for
// the plan grammar) with --retries enabled — then asserts the faulted run
// recovered every trial and is bit-identical to the clean one. Exit 0 only
// on full recovery; the per-class error counts are printed either way.
// The same fault flags work on `kaslr` sweeps.
//
// `sweep` is the distributed runner: it shards --trials across a pool of
// whisper_serve daemons (--endpoints takes a comma-separated list of
// `host:port`, `tcp:host:port`, or `unix:/path` addresses) and merges the
// responses by trial index. Endpoint failures are survived, counted, and
// reassigned — the sweep completes as long as one daemon lives — and the
// merged stream is byte-identical to a local run of the same spec
// (invariant 13, docs/ARCHITECTURE.md); --verify recomputes the spec
// locally and checks exactly that. --flaky-plan injects deterministic
// transport faults (drop/shortread/stall, fault grammar over per-endpoint
// request ordinals) to rehearse failure handling without real packet loss.
//
// Attack NAMEs come from core::attack_registry() — `whisper_cli attacks`
// lists them; anything registered there is runnable here, including through
// `leak` (channel attacks move --secret; kaslr reports the found base).
// CPU index N follows Table 2 order: 0=i7-6700, 1=i7-7700, 2=i9-10980XE,
// 3=i9-13900K, 4=Ryzen 5600G. --noise picks an interference preset
// (off|quiet|desktop|noisy-server); --adaptive escalates batch counts until
// the decode confidence clears --confidence or --budget caps it.
//
// `kaslr --trials T --jobs J` and `matrix --jobs J` go through
// whisper::runner: independent simulated machines fan out across J worker
// threads with results bit-identical to --jobs 1 (docs/REPRODUCING.md).
//
// --trace-out writes a Chrome trace-event JSON of the command's pipeline
// activity (open it in chrome://tracing or ui.perfetto.dev); --metrics-out
// writes every counter the run touched as an obs::MetricsRegistry export
// (JSON, or CSV when the path ends in .csv). docs/REPRODUCING.md
// ("Inspecting a run") walks through both.
//
// Fast-forward (docs/PERFORMANCE.md) is on by default everywhere: the core
// skips provably inert cycle spans with results byte-identical to the
// cycle-by-cycle pipeline. --no-fast-forward forces the structural path
// (accepted by every command; --fast-forward restates the default). Use it
// only to cross-check identity or to profile the full pipeline walk.
#include <concepts>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "client/endpoint.h"
#include "client/sweep_client.h"
#include "client/wire.h"
#include "core/attacks/common.h"
#include "core/attacks/registry.h"
#include "core/gadgets.h"
#include "defense/defense.h"
#include "noise/noise.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/topdown.h"
#include "os/machine.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "stats/parse.h"
#include "uarch/trace.h"

using namespace whisper;

namespace {

struct Args {
  std::vector<std::string> positional;
  bool has(const std::string& flag) const {
    for (const auto& a : positional)
      if (a == flag) return true;
    return false;
  }
  std::string value(const std::string& flag, const std::string& dflt) const {
    for (std::size_t i = 0; i + 1 < positional.size(); ++i)
      if (positional[i] == flag) return positional[i + 1];
    return dflt;
  }
  /// An integer flag through stats::parse_uint: the whole token, decimal or
  /// 0x hex. Anything else throws, which main() turns into exit status 2.
  template <std::integral T>
  T number(const std::string& flag, T dflt) const {
    for (std::size_t i = 0; i + 1 < positional.size(); ++i)
      if (positional[i] == flag) {
        const std::string& text = positional[i + 1];
        if (const std::optional<T> v = stats::parse_uint<T>(text)) return *v;
        throw std::invalid_argument(flag + " takes a decimal or 0x-hex "
                                    "integer, got '" + text + "'");
      }
    return dflt;
  }
  /// Every value of a repeatable flag (--defense can appear many times).
  std::vector<std::string> values(const std::string& flag) const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i + 1 < positional.size(); ++i)
      if (positional[i] == flag) out.push_back(positional[i + 1]);
    return out;
  }
};

uarch::CpuModel cpu_from(const Args& args) {
  const int n = args.number("--cpu", 1);
  const auto models = uarch::all_models();
  return models[static_cast<std::size_t>(n) % models.size()];
}

/// --no-fast-forward wins over the (default) --fast-forward; both are
/// accepted so scripts can be explicit either way.
bool fast_forward_from(const Args& args) {
  return !args.has("--no-fast-forward");
}

/// The repeatable --defense flag as one DefenseSpec stack. Shared by every
/// command that builds a machine or a RunSpec.
std::vector<defense::DefenseSpec> defenses_from(const Args& args) {
  std::vector<defense::DefenseSpec> out;
  for (const std::string& text : args.values("--defense"))
    out.push_back(defense::parse(text));
  return out;
}

/// Fault-tolerance knobs shared by every runner-backed command.
void apply_fault_flags(runner::RunSpec& spec, const Args& args) {
  spec.retries = args.number("--retries", 0);
  spec.trial_cycle_budget =
      args.number<std::uint64_t>("--trial-cycle-budget", 0);
  spec.trial_wall_budget = std::stod(args.value("--trial-wall-budget", "0"));
  spec.fault_plan = args.value("--fault-plan", "");
  spec.verify_reset = args.has("--verify-reset");
  spec.fast_forward = fast_forward_from(args);
}

bool write_metrics(const obs::MetricsRegistry& reg, const std::string& path) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const bool ok = csv ? reg.write_csv_file(path) : reg.write_json_file(path);
  if (ok) std::printf("metrics written to %s\n", path.c_str());
  return ok;
}

/// PMU delta + top-down attribution over [before, now) as a registry.
obs::MetricsRegistry machine_metrics(os::Machine& m,
                                     const uarch::PmuSnapshot& before) {
  const uarch::PmuSnapshot delta =
      uarch::pmu_delta(before, m.core().pmu().snapshot());
  const obs::TopDown td = obs::attribute_cycles(delta);
  obs::MetricsRegistry reg;
  reg.import_pmu(delta);
  reg.set_counter("topdown.total_cycles", td.total_cycles);
  reg.set_counter("topdown.retiring", td.retiring);
  reg.set_counter("topdown.bad_speculation", td.bad_speculation);
  reg.set_counter("topdown.frontend_bound", td.frontend_bound);
  reg.set_counter("topdown.backend_bound", td.backend_bound);
  std::printf("top-down: %s\n", td.to_string().c_str());
  return reg;
}

int cmd_models() {
  std::printf("%-4s %-24s %-12s %-6s %-28s\n", "idx", "name", "uarch", "TSX",
              "vulnerabilities");
  int i = 0;
  for (uarch::CpuModel m : uarch::all_models()) {
    const auto c = uarch::make_config(m);
    std::string v;
    if (c.meltdown_vulnerable()) v += "meltdown ";
    if (c.mds_vulnerable()) v += "mds ";
    if (c.tlb_fills_on_fault()) v += "tlb-fill-on-fault ";
    std::printf("%-4d %-24s %-12s %-6s %-28s\n", i++, c.name.c_str(),
                c.uarch_name.c_str(), c.has_tsx ? "yes" : "no", v.c_str());
  }
  return 0;
}

int cmd_tote(const Args& args) {
  os::Machine m({.model = cpu_from(args)});
  m.core().set_fast_forward(fast_forward_from(args));
  m.poke8(os::Machine::kSharedBase, 'S');
  const auto g = core::make_tet_gadget(
      {.window = core::preferred_window(m.config()),
       .source = core::SecretSource::SharedMemory});
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = core::kNullProbeAddress;
  regs[static_cast<std::size_t>(isa::Reg::RDX)] = os::Machine::kSharedBase;
  const bool trigger = !args.has("--no-trigger");
  regs[static_cast<std::size_t>(isa::Reg::RBX)] = trigger ? 'S' : 'T';

  const std::string trace_out = args.value("--trace-out", "");
  const std::string metrics_out = args.value("--metrics-out", "");
  // --trace dumps the last probe's window; --trace-out exports all 8.
  const bool dump = args.has("--trace") && trace_out.empty();
  uarch::EventLog log;
  if (dump || !trace_out.empty()) m.core().set_trace(&log);
  const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();
  for (int i = 0; i < 8; ++i) {
    if (dump && i == 7) log.clear();
    std::printf("probe %d (%s): ToTE = %llu cycles\n", i,
                trigger ? "trigger" : "no trigger",
                static_cast<unsigned long long>(core::run_tote(m, g, regs)));
  }
  m.core().set_trace(nullptr);
  if (dump)
    std::printf("\npipeline trace (last probe window):\n%s",
                log.to_string().c_str());
  if (!trace_out.empty() && obs::write_chrome_trace(log, trace_out))
    std::printf("pipeline trace of all 8 probes written to %s "
                "(%zu events)\n",
                trace_out.c_str(), log.size());
  if (!metrics_out.empty())
    write_metrics(machine_metrics(m, pmu_before), metrics_out);
  return 0;
}

int cmd_attacks() {
  std::printf("%-8s %-8s %s\n", "name", "kind", "description");
  for (const core::AttackInfo& info : core::attack_registry())
    std::printf("%-8s %-8s %s\n", info.name.c_str(),
                info.channel ? "channel" : "kaslr", info.description.c_str());
  return 0;
}

int cmd_defenses() {
  std::printf("%-12s %-20s %s\n", "name", "params", "description");
  for (const defense::DefenseInfo& d : defense::registry()) {
    std::string params;
    for (const defense::DefenseParamInfo& p : d.params) {
      if (!params.empty()) params += ' ';
      params += p.name + "=" + p.default_value;
    }
    std::printf("%-12s %-20s %s\n", d.name.c_str(),
                params.empty() ? "-" : params.c_str(), d.description.c_str());
  }
  std::printf("\ncompose with repeated --defense flags "
              "(e.g. --defense kpti --defense window:depth=8)\n");
  return 0;
}

int cmd_leak(const Args& args) {
  const std::string what = args.value("--attack", "md");
  const core::AttackInfo* info = core::find_attack(what);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown --attack '%s'; registered attacks:\n",
                 what.c_str());
    for (const std::string& n : core::attack_names())
      std::fprintf(stderr, "  %s\n", n.c_str());
    return 2;
  }

  os::MachineOptions mo;
  mo.model = cpu_from(args);
  const std::string noise_name = args.value("--noise", "off");
  const auto profile = noise::NoiseProfile::by_name(noise_name);
  if (!profile) {
    std::fprintf(stderr, "unknown --noise '%s' (off|quiet|desktop|"
                 "noisy-server)\n", noise_name.c_str());
    return 2;
  }
  mo.noise = *profile;
  defense::apply(defenses_from(args), mo);
  os::Machine m(mo);
  m.core().set_fast_forward(fast_forward_from(args));

  const std::string secret_str = args.value("--secret", "hunter2");
  const std::vector<std::uint8_t> secret(secret_str.begin(),
                                         secret_str.end());

  const std::string trace_out = args.value("--trace-out", "");
  const std::string metrics_out = args.value("--metrics-out", "");
  uarch::EventLog log;
  if (!trace_out.empty()) m.core().set_trace(&log);
  const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();

  core::AttackOptions opt;
  opt.adaptive = args.has("--adaptive");
  opt.confidence_threshold = std::stod(args.value("--confidence", "0.5"));
  opt.batch_budget = args.number("--budget", 0);
  const auto atk = info->make(m, opt);
  const core::AttackResult r =
      atk->run(info->channel ? std::span<const std::uint8_t>(secret)
                             : std::span<const std::uint8_t>());

  m.core().set_trace(nullptr);
  if (info->channel) {
    std::string printable;
    for (std::uint8_t b : r.bytes)
      printable += (b >= 32 && b < 127) ? static_cast<char>(b) : '.';
    std::printf("TET-%s on %s leaked: \"%s\"  (%s, confidence %.2f%s)\n",
                what.c_str(), m.config().name.c_str(), printable.c_str(),
                r.success ? "exact" : "with errors", r.confidence,
                r.gave_up ? ", gave up on some bytes" : "");
  } else {
    std::printf("TET-%s on %s: %s  found %#llx true %#llx "
                "(confidence %.2f)\n",
                what.c_str(), m.config().name.c_str(),
                r.success ? "BROKEN" : "held",
                static_cast<unsigned long long>(r.found_base),
                static_cast<unsigned long long>(r.true_base), r.confidence);
  }
  if (!trace_out.empty() && obs::write_chrome_trace(log, trace_out))
    std::printf("pipeline trace of the leak written to %s (%zu events)\n",
                trace_out.c_str(), log.size());
  if (!metrics_out.empty())
    write_metrics(machine_metrics(m, pmu_before), metrics_out);
  return r.success ? 0 : 1;
}

int cmd_kaslr(const Args& args) {
  const int trials = args.number("--trials", 1);
  const std::string trace_out = args.value("--trace-out", "");
  const std::string metrics_out = args.value("--metrics-out", "");
  if (trials <= 1) {
    // Single shot: the interactive view, with found vs true base.
    os::MachineOptions opts;
    opts.model = cpu_from(args);
    opts.seed = args.number<std::uint64_t>("--seed", 0);
    if (const auto p = noise::NoiseProfile::by_name(
            args.value("--noise", "off")))
      opts.noise = *p;
    const std::vector<defense::DefenseSpec> stack = defenses_from(args);
    defense::apply(stack, opts);
    os::Machine m(opts);
    m.core().set_fast_forward(fast_forward_from(args));
    uarch::EventLog log;
    if (!trace_out.empty()) m.core().set_trace(&log);
    const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();
    core::AttackOptions opt;
    opt.adaptive = args.has("--adaptive");
    const auto atk = core::make_attack("kaslr", m, opt);
    const core::AttackResult r = atk->run({});
    m.core().set_trace(nullptr);
    std::string defense_suffix;
    if (!stack.empty()) defense_suffix = " +" + defense::format_list(stack);
    std::printf("TET-KASLR on %s%s: %s  found %#llx true %#llx  (%.4f s, "
                "%zu probes)\n",
                m.config().name.c_str(), defense_suffix.c_str(),
                r.success ? "BROKEN" : "held",
                static_cast<unsigned long long>(r.found_base),
                static_cast<unsigned long long>(r.true_base), r.seconds,
                r.probes);
    if (!trace_out.empty() && obs::write_chrome_trace(log, trace_out))
      std::printf("pipeline trace of the slot sweep written to %s "
                  "(%zu events)\n",
                  trace_out.c_str(), log.size());
    if (!metrics_out.empty())
      write_metrics(machine_metrics(m, pmu_before), metrics_out);
    return r.success ? 0 : 1;
  }

  // Multi-trial sweep through the parallel runner: every trial is a fresh
  // machine with a fresh KASLR draw, seeded from --seed ⊕ trial index.
  runner::RunSpec spec;
  spec.model = cpu_from(args);
  spec.attack = "kaslr";
  spec.trials = trials;
  spec.defenses = defenses_from(args);
  spec.base_seed = args.number<std::uint64_t>("--seed", 1);
  if (const auto p = noise::NoiseProfile::by_name(
          args.value("--noise", "off")))
    spec.noise = *p;
  spec.adaptive = args.has("--adaptive");
  spec.collect_trace = !trace_out.empty();
  apply_fault_flags(spec, args);
  const int jobs = args.number("--jobs", 1);
  const auto r = runner::run(spec, jobs, /*progress=*/true);
  std::printf("TET-KASLR sweep: %s\n", spec.label().c_str());
  std::printf("  broke KASLR in %zu/%zu trials; sim time %.4f s mean "
              "(sd %.4f, min %.4f, max %.4f)\n",
              r.successes, r.trials.size(), r.seconds.mean, r.seconds.stdev,
              r.seconds.min, r.seconds.max);
  std::printf("  %zu probes total; host wall %.2f s with %d jobs\n",
              r.total_probes, r.wall_seconds, r.jobs);
  if (r.failed || r.retried || r.quarantined)
    std::printf("  fault layer: %zu/%zu completed, %zu retried, "
                "%zu quarantined, %zu degraded\n",
                r.completed, r.attempted, r.retried, r.quarantined, r.failed);
  const std::string json = args.value("--json", "");
  if (!json.empty() && runner::write_json_file(r, json))
    std::printf("  trajectory written to %s\n", json.c_str());
  if (!trace_out.empty() && obs::write_chrome_trace(r.events, trace_out))
    std::printf("  pipeline trace of all trials (index order) written to "
                "%s (%zu events)\n",
                trace_out.c_str(), r.events.size());
  if (!metrics_out.empty()) {
    std::printf("  top-down: %s\n", r.topdown.to_string().c_str());
    write_metrics(runner::to_metrics(r), metrics_out);
  }
  return r.all_succeeded() ? 0 : 1;
}

/// Field-by-field trial comparison for the chaos self-test — the CLI-side
/// mirror of tests/test_runner.cpp's expect_identical.
bool trial_identical(const runner::TrialResult& a,
                     const runner::TrialResult& b) {
  return a.seed == b.seed && a.success == b.success && a.cycles == b.cycles &&
         a.seconds == b.seconds && a.probes == b.probes &&
         a.bytes == b.bytes && a.byte_errors == b.byte_errors &&
         a.found_slot == b.found_slot && a.confidence == b.confidence &&
         a.gave_up == b.gave_up && a.tote.buckets() == b.tote.buckets() &&
         a.pmu == b.pmu;
}

int cmd_chaos(const Args& args) {
  runner::RunSpec spec;
  spec.model = cpu_from(args);
  spec.attack = args.value("--attack", "cc");
  spec.defenses = defenses_from(args);
  spec.trials = args.number("--trials", 12);
  spec.base_seed = args.number<std::uint64_t>("--seed", 12648430);
  spec.payload_bytes = 4;
  spec.batches = 2;
  spec.retries = args.number("--retries", 2);
  spec.trial_cycle_budget =
      args.number<std::uint64_t>("--trial-cycle-budget", 1000000000);
  spec.trial_wall_budget = std::stod(args.value("--trial-wall-budget", "0"));
  spec.fault_plan =
      args.value("--fault-plan", "throw@2;corrupt@5;stall@8");
  spec.fast_forward = fast_forward_from(args);
  const int jobs = args.number("--jobs", 4);

  runner::RunSpec clean = spec;
  clean.fault_plan.clear();

  std::printf("chaos: %s under plan \"%s\" (retries %d, jobs %d)\n",
              spec.label().c_str(), spec.fault_plan.c_str(), spec.retries,
              jobs);
  const runner::RunResult faulted = runner::run(spec, jobs);
  const runner::RunResult reference = runner::run(clean, jobs);

  std::printf("  attempted %zu, completed %zu, failed %zu, retried %zu, "
              "quarantined %zu, attempts %zu\n",
              faulted.attempted, faulted.completed, faulted.failed,
              faulted.retried, faulted.quarantined, faulted.total_attempts);
  std::printf("  errors by class:");
  for (std::size_t k = 0; k < runner::kNumTrialErrorKinds; ++k)
    std::printf(" %s=%zu",
                runner::to_string(static_cast<runner::TrialErrorKind>(k)),
                faulted.error_counts[k]);
  std::printf("\n");

  bool ok = true;
  if (faulted.failed != 0) {
    std::printf("  FAIL: %zu trial(s) degraded — retries did not recover\n",
                faulted.failed);
    ok = false;
  }
  if (faulted.trials.size() != reference.trials.size()) {
    std::printf("  FAIL: trial count mismatch vs clean run\n");
    ok = false;
  } else {
    for (std::size_t i = 0; i < faulted.trials.size(); ++i)
      if (!trial_identical(faulted.trials[i], reference.trials[i])) {
        std::printf("  FAIL: trial %zu differs from the clean run\n", i);
        ok = false;
      }
  }
  if (faulted.tote.buckets() != reference.tote.buckets()) {
    std::printf("  FAIL: merged ToTE histogram differs from the clean run\n");
    ok = false;
  }
  if (ok)
    std::printf("  recovered %zu/%zu trials; results bit-identical to the "
                "clean run\n",
                faulted.completed, faulted.attempted);

  const std::string json = args.value("--json", "");
  if (!json.empty() && runner::write_json_file(faulted, json))
    std::printf("  faulted-run trajectory written to %s\n", json.c_str());
  return ok ? 0 : 1;
}

int cmd_matrix(const Args& args) {
  // The Table 2 matrix (5 CPUs × 5 attacks) through the parallel runner;
  // bench/table2_matrix prints the full paper comparison.
  const int jobs = args.number("--jobs", 1);
  const std::vector<std::string> attacks = core::attack_names();

  std::vector<runner::RunSpec> specs;
  for (const uarch::CpuModel model : uarch::all_models())
    for (const std::string& a : attacks) {
      runner::RunSpec spec;
      spec.model = model;
      spec.attack = a;
      spec.base_seed = 0x7ab1e2;
      spec.payload_bytes = 4;
      spec.batches = 4;
      spec.fast_forward = fast_forward_from(args);
      specs.push_back(spec);
    }

  runner::Executor ex(jobs);
  const auto results = runner::run_many(specs, ex, /*progress=*/true);

  std::printf("%-24s", "CPU");
  for (const std::string& a : attacks) std::printf(" %-8s", a.c_str());
  std::printf("\n");
  std::size_t cell = 0;
  for (const uarch::CpuModel model : uarch::all_models()) {
    const auto cfg = uarch::make_config(model);
    std::printf("%-24s", cfg.name.c_str());
    for (std::size_t c = 0; c < attacks.size(); ++c)
      std::printf(" %-9s", results[cell++].all_succeeded() ? "✓" : "✗");
    std::printf("\n");
  }
  std::printf("\n(run bench/table2_matrix for the paper-cell comparison; "
              "--jobs N parallelises either)\n");
  return 0;
}

/// Distributed sweep: shard --trials across --endpoints and merge by
/// index. Exit 0 only on a complete (and, with --verify, byte-identical)
/// merge; endpoint failures along the way are counters, not errors.
int cmd_sweep(const Args& args) {
  const std::string endpoints_csv = args.value("--endpoints", "");
  if (endpoints_csv.empty()) {
    std::fprintf(stderr,
                 "whisper_cli sweep: --endpoints is required "
                 "(comma-separated host:port / tcp:host:port / unix:/path)\n");
    return 2;
  }

  runner::RunSpec spec;
  spec.model = cpu_from(args);
  spec.attack = args.value("--attack", "kaslr");
  spec.trials = args.number("--trials", 8);
  spec.defenses = defenses_from(args);
  spec.base_seed = args.number<std::uint64_t>("--seed", 1);
  if (const auto p = noise::NoiseProfile::by_name(
          args.value("--noise", "off")))
    spec.noise = *p;
  spec.adaptive = args.has("--adaptive");
  apply_fault_flags(spec, args);

  std::vector<std::shared_ptr<client::Endpoint>> pool;
  for (const auto& ep : client::parse_endpoint_list(endpoints_csv))
    pool.push_back(client::make_endpoint(ep));

  client::SweepOptions opts;
  opts.chunk_trials = args.number("--chunk", 4);
  opts.deadline_ms = args.number("--deadline-ms", 60000);
  opts.connect_timeout_ms = args.number("--connect-timeout-ms", 2000);
  opts.endpoint_failures = args.number("--failures", 3);
  opts.flaky_plan = args.value("--flaky-plan", "");

  client::SweepClient sweeper(opts);
  const client::SweepResult r = sweeper.sweep(spec, pool);

  std::printf("distributed sweep: %s across %zu endpoint(s)\n",
              spec.label().c_str(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    std::printf("  %-32s %zu trial(s)\n", pool[i]->label().c_str(),
                i < r.stats.trials_by_endpoint.size()
                    ? r.stats.trials_by_endpoint[i]
                    : std::size_t{0});
  std::printf("  %zu/%d trials merged; %zu request(s), %zu unreachable, "
              "%zu timed out, %zu reconnect(s), %zu chunk(s) reassigned, "
              "%zu endpoint(s) dead, %zu duplicate trial(s)\n",
              r.trials_received, spec.trials, r.stats.requests,
              r.stats.unreachable, r.stats.timed_out, r.stats.reconnects,
              r.stats.reassigned, r.stats.dead_endpoints,
              r.stats.duplicate_trials);
  if (!r.complete) {
    if (r.error.empty())
      std::fprintf(stderr,
                   "whisper_cli sweep: incomplete (every endpoint died)\n");
    else
      std::fprintf(stderr, "whisper_cli sweep: %s\n", r.error.c_str());
    return 1;
  }

  const std::string json = args.value("--json", "");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "whisper_cli sweep: cannot write %s\n",
                   json.c_str());
      return 1;
    }
    for (const std::string& line : r.trial_lines)
      std::fprintf(f, "%s\n", line.c_str());
    std::fprintf(f, "%s\n", r.done_line.c_str());
    std::fclose(f);
    std::printf("  merged response stream written to %s\n", json.c_str());
  }

  if (args.has("--verify")) {
    // Invariant 13, checked the direct way: rerun the whole spec locally
    // and demand the distributed merge is the same bytes.
    const auto local = runner::run(spec, args.number("--jobs", 1));
    const bool same = r.trial_lines == client::canonical_trial_lines(local) &&
                      r.done_line == client::canonical_done_line(local);
    std::printf("  --verify: merged stream %s the local runner::run bytes\n",
                same ? "matches" : "DIVERGES from");
    if (!same) return 1;
  }

  std::printf("  %s\n", r.done_line.c_str());
  return 0;
}

}  // namespace

/// Flags that would run a different cell if ignored: the retired defense
/// aliases and --rounds, which whisper_cli never read. Spelled without the
/// dashes so scripts/check_docs.sh does not count them as parsed flags.
constexpr std::pair<const char*, const char*> kRefusedFlags[] = {
    {"kpti", "was removed; use --defense kpti"},
    {"flare", "was removed; use --defense flare"},
    {"fgkaslr", "was removed; use --defense fgkaslr"},
    {"rounds", "is not a whisper_cli flag; kaslr runs its default 3 sweep "
               "rounds"},
};

int main(int argc, char** argv) try {
  Args args;
  for (int i = 2; i < argc; ++i) args.positional.emplace_back(argv[i]);
  bool refused = false;
  for (const auto& [name, why] : kRefusedFlags)
    if (args.has(std::string("--") + name)) {
      std::fprintf(stderr, "whisper_cli: --%s %s\n", name, why);
      refused = true;
    }
  if (refused) return 2;
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "--list-attacks" || args.has("--list-attacks") ||
      cmd == "attacks")
    return cmd_attacks();
  if (cmd == "defenses") return cmd_defenses();
  if (cmd == "models") return cmd_models();
  if (cmd == "tote") return cmd_tote(args);
  if (cmd == "leak") return cmd_leak(args);
  if (cmd == "kaslr") return cmd_kaslr(args);
  if (cmd == "chaos") return cmd_chaos(args);
  if (cmd == "matrix") return cmd_matrix(args);
  if (cmd == "sweep") return cmd_sweep(args);
  std::fprintf(stderr,
               "usage: whisper_cli <models|tote|leak|kaslr|chaos|matrix|"
               "sweep|attacks|defenses> [options]\n  see the header comment "
               "of examples/whisper_cli.cpp\n");
  return 2;
} catch (const std::exception& e) {
  // Spec/plan validation errors (bad --attack, malformed --fault-plan, ...)
  // should read as a usage message, not a terminate() backtrace.
  std::fprintf(stderr, "whisper_cli: %s\n", e.what());
  return 2;
}

// whisper_cli — interactive playground for the library.
//
// `whisper_cli --help` prints every command's flag table; `whisper_cli
// <command> --help` prints one. Each command builds its table from rows
// (src/stats/flags.h), and every flag that sets a RunSpec field is that
// field's row in the RunSpec schema (src/runner/spec_schema.h), so --cpu,
// --noise or --defense mean here what they mean on the wire. An unknown
// flag or a malformed value (--seed 12x, --cpu 7, --noise bogus) exits
// with status 2 rather than running a default, since a flag that were
// ignored would run a different cell than the one asked for. For the same
// reason the retired --kpti / --flare / --fgkaslr aliases, and --rounds,
// are refused by name.
//
// `chaos` is the fault-tolerance self-test: it runs the same spec twice —
// once clean, once under a seeded --fault-plan (see src/fault/fault.h for
// the plan grammar) with --retries enabled — then asserts the faulted run
// recovered every trial and is bit-identical to the clean one. Exit 0 only
// on full recovery; the per-class error counts are printed either way.
// The same fault flags work on `kaslr` sweeps.
//
// `sweep` is the distributed runner: it shards --trials across a pool of
// whisper_serve daemons and merges the responses by trial index. Endpoint
// failures are survived, counted, and
// reassigned — the sweep completes as long as one daemon lives — and the
// merged stream is byte-identical to a local run of the same spec
// (invariant 13, docs/ARCHITECTURE.md); --verify recomputes the spec
// locally and checks exactly that. --flaky-plan injects deterministic
// transport faults (drop/shortread/stall, fault grammar over per-endpoint
// request ordinals) to rehearse failure handling without real packet loss.
//
// Anything registered in core::attack_registry() is runnable here,
// including through `leak` (channel attacks move --secret; kaslr reports
// the found base).
//
// Fast-forward (docs/PERFORMANCE.md) is on by default everywhere: the core
// skips provably inert cycle spans with results byte-identical to the
// cycle-by-cycle pipeline. --no-fast-forward forces the structural path;
// use it only to cross-check identity or to profile the full pipeline walk.
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "client/endpoint.h"
#include "client/sweep_client.h"
#include "client/wire.h"
#include "core/attacks/common.h"
#include "core/attacks/registry.h"
#include "core/gadgets.h"
#include "defense/defense.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/topdown.h"
#include "os/machine.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "runner/spec_schema.h"
#include "stats/flags.h"
#include "stats/text_file.h"
#include "uarch/trace.h"

using namespace whisper;

namespace {

/// Everything a command reads from its flags.
struct Options {
  runner::RunSpec spec;
  int jobs = 1;
  std::string json;
  std::string trace_out;
  std::string metrics_out;
  bool list_attacks = false;
  bool trigger = true;  // tote
  bool trace = false;
  std::string secret = "hunter2";  // leak
  std::string endpoints;  // sweep
  client::SweepOptions sweep;
  bool verify = false;
};

/// Add row `name` to `f`: a RunSpec schema field, or a flag of its own.
void add_row(stats::Flags& f, Options& o, std::string_view name) {
  if (runner::find_spec_field(name) != nullptr) {
    runner::add_flag(f, o.spec, name);
  } else if (name == "no-fast-forward") {
    runner::add_flag(f, o.spec, "fast_forward", "no-fast-forward",
                     "step the structural pipeline cycle by cycle");
  } else if (name == "jobs") {
    f.value("jobs", "J", "worker threads; results are identical for any J",
            o.jobs);
  } else if (name == "json") {
    f.value("json", "PATH", "write the trajectory (sweep: merged stream)",
            o.json);
  } else if (name == "trace-out") {
    f.value("trace-out", "PATH", "write a Chrome trace-event JSON",
            o.trace_out);
  } else if (name == "metrics-out") {
    f.value("metrics-out", "PATH", "write the counters as JSON (or .csv)",
            o.metrics_out);
  } else if (name == "trigger") {
    f.toggle("trigger", "probe with the secret's value (the default)",
             o.trigger);
    f.toggle("no-trigger", "probe with another value", o.trigger, false);
  } else if (name == "trace") {
    f.toggle("trace", "print the pipeline trace of the last probe", o.trace);
  } else if (name == "secret") {
    f.value("secret", "TEXT", "the payload a channel attack moves", o.secret);
  } else if (name == "endpoints") {
    f.value("endpoints", "LIST", "daemons: host:port, tcp:host:port, unix:/p",
            o.endpoints);
  } else if (name == "chunk") {
    f.value("chunk", "C", "trials per run request", o.sweep.chunk_trials);
  } else if (name == "deadline-ms") {
    f.value("deadline-ms", "MS", "per-request silence deadline",
            o.sweep.deadline_ms);
  } else if (name == "connect-timeout-ms") {
    f.value("connect-timeout-ms", "MS", "dial bound",
            o.sweep.connect_timeout_ms);
  } else if (name == "failures") {
    f.value("failures", "F", "consecutive failures that kill an endpoint",
            o.sweep.endpoint_failures);
  } else if (name == "flaky-plan") {
    f.value("flaky-plan", "PLAN", "transport faults, e.g. drop@1;stall@3",
            o.sweep.flaky_plan);
  } else if (name == "verify") {
    f.toggle("verify", "rerun the spec locally and demand the same bytes",
             o.verify);
  } else {
    throw std::logic_error("whisper_cli has no flag row '" +
                           std::string(name) + "'");
  }
}

bool write_metrics(const obs::MetricsRegistry& reg, const std::string& path) {
  const bool ok = reg.write_file(path);
  if (ok) std::printf("metrics written to %s\n", path.c_str());
  return ok;
}

/// A one-machine command's --trace-out (`log`, the pipeline trace of
/// `what`) and --metrics-out (PMU delta + top-down attribution over
/// [before, now)); false when an output asked for was not written.
bool write_machine_outputs(const Options& o, os::Machine& m,
                           const uarch::PmuSnapshot& before,
                           const uarch::EventLog& log, const char* what) {
  bool written = true;
  if (!o.trace_out.empty()) {
    written = obs::write_chrome_trace(log, o.trace_out);
    if (written)
      std::printf("pipeline trace of %s written to %s (%zu events)\n", what,
                  o.trace_out.c_str(), log.size());
  }
  if (!o.metrics_out.empty()) {
    const uarch::PmuSnapshot delta =
        uarch::pmu_delta(before, m.core().pmu().snapshot());
    const obs::TopDown td = obs::attribute_cycles(delta);
    obs::MetricsRegistry reg;
    reg.import_pmu(delta);
    reg.import_topdown(td);
    std::printf("top-down: %s\n", td.to_string().c_str());
    written = write_metrics(reg, o.metrics_out) && written;
  }
  return written;
}

int cmd_models(const Options&) {
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

int cmd_tote(const Options& o) {
  os::Machine m(runner::machine_options(o.spec, /*seed=*/0));
  m.core().set_fast_forward(o.spec.fast_forward);
  m.poke8(os::Machine::kSharedBase, 'S');
  const auto g = core::make_tet_gadget(
      {.window = core::preferred_window(m.config()),
       .source = core::SecretSource::SharedMemory});
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = core::kNullProbeAddress;
  regs[static_cast<std::size_t>(isa::Reg::RDX)] = os::Machine::kSharedBase;
  regs[static_cast<std::size_t>(isa::Reg::RBX)] = o.trigger ? 'S' : 'T';

  // --trace dumps the last probe's window; --trace-out exports all 8.
  const bool dump = o.trace && o.trace_out.empty();
  uarch::EventLog log;
  if (dump || !o.trace_out.empty()) m.core().set_trace(&log);
  const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();
  for (int i = 0; i < 8; ++i) {
    if (dump && i == 7) log.clear();
    std::printf("probe %d (%s): ToTE = %llu cycles\n", i,
                o.trigger ? "trigger" : "no trigger",
                static_cast<unsigned long long>(core::run_tote(m, g, regs)));
  }
  m.core().set_trace(nullptr);
  if (dump)
    std::printf("\npipeline trace (last probe window):\n%s",
                log.to_string().c_str());
  return write_machine_outputs(o, m, pmu_before, log, "all 8 probes") ? 0 : 1;
}

int cmd_attacks(const Options&) {
  std::printf("%-8s %-8s %s\n", "name", "kind", "description");
  for (const core::AttackInfo& info : core::attack_registry())
    std::printf("%-8s %-8s %s\n", info.name.c_str(),
                info.channel ? "channel" : "kaslr", info.description.c_str());
  return 0;
}

int cmd_defenses(const Options&) {
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

int cmd_leak(const Options& o) {
  const std::string& what = o.spec.attack;
  const core::AttackInfo& info = core::attack_or_throw(what);

  os::Machine m(runner::machine_options(o.spec, /*seed=*/0));
  m.core().set_fast_forward(o.spec.fast_forward);

  const std::vector<std::uint8_t> secret(o.secret.begin(), o.secret.end());

  uarch::EventLog log;
  if (!o.trace_out.empty()) m.core().set_trace(&log);
  const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();

  core::AttackOptions opt;
  opt.adaptive = o.spec.adaptive;
  opt.confidence_threshold = o.spec.confidence_threshold;
  opt.batch_budget = o.spec.batch_budget;
  const auto atk = info.make(m, opt);
  const core::AttackResult r =
      atk->run(info.channel ? std::span<const std::uint8_t>(secret)
                            : std::span<const std::uint8_t>());

  m.core().set_trace(nullptr);
  if (info.channel) {
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
  const bool written =
      write_machine_outputs(o, m, pmu_before, log, "the leak");
  return r.success && written ? 0 : 1;
}

int cmd_kaslr(const Options& o) {
  // A sweep through the parallel runner, one trial included: every trial
  // is a fresh KASLR draw seeded from --seed ⊕ trial index. `leak --attack
  // kaslr` is the one-machine view with the found and true bases.
  runner::RunSpec spec = o.spec;
  spec.collect_trace = !o.trace_out.empty();
  const auto r = runner::run(spec, o.jobs, /*progress=*/true);
  std::printf("TET-KASLR sweep: %s, base seed %#llx\n", spec.label().c_str(),
              static_cast<unsigned long long>(spec.base_seed));
  std::printf("  broke KASLR in %zu/%zu trials; sim time %.4f s mean "
              "(sd %.4f, min %.4f, max %.4f)\n",
              r.successes, r.trials.size(), r.seconds.mean, r.seconds.stdev,
              r.seconds.min, r.seconds.max);
  std::printf("  %zu probes total\n", r.total_probes);
  // Host time is not a result: stdout stays a function of the spec.
  std::fprintf(stderr, "  host wall %.2f s with %d jobs\n", r.wall_seconds,
               r.jobs);
  if (r.failed || r.retried || r.quarantined)
    std::printf("  fault layer: %zu/%zu completed, %zu retried, "
                "%zu quarantined, %zu degraded\n",
                r.completed, r.attempted, r.retried, r.quarantined, r.failed);
  bool written = true;  // every output asked for, or exit 1
  if (!o.json.empty()) {
    written = runner::write_json_file(r, o.json);
    if (written) std::printf("  trajectory written to %s\n", o.json.c_str());
  }
  if (!o.trace_out.empty()) {
    if (obs::write_chrome_trace(r.events, o.trace_out))
      std::printf("  pipeline trace of all trials (index order) written to "
                  "%s (%zu events)\n",
                  o.trace_out.c_str(), r.events.size());
    else
      written = false;
  }
  if (!o.metrics_out.empty()) {
    std::printf("  top-down: %s\n", r.topdown.to_string().c_str());
    written = write_metrics(runner::to_metrics(r), o.metrics_out) && written;
  }
  return r.all_succeeded() && written ? 0 : 1;
}

int cmd_chaos(const Options& o) {
  const runner::RunSpec& spec = o.spec;

  runner::RunSpec clean = spec;
  clean.fault_plan.clear();

  std::printf("chaos: %s under plan \"%s\" (retries %d, jobs %d)\n",
              spec.label().c_str(), spec.fault_plan.c_str(), spec.retries,
              o.jobs);
  const runner::RunResult faulted = runner::run(spec, o.jobs);
  const runner::RunResult reference = runner::run(clean, o.jobs);

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
      if (faulted.trials[i] != reference.trials[i]) {
        std::printf("  FAIL: trial %zu differs from the clean run\n", i);
        ok = false;
      }
  }
  if (faulted.tote != reference.tote) {
    std::printf("  FAIL: merged ToTE histogram differs from the clean run\n");
    ok = false;
  }
  if (ok)
    std::printf("  recovered %zu/%zu trials; results bit-identical to the "
                "clean run\n",
                faulted.completed, faulted.attempted);

  if (!o.json.empty()) {
    if (runner::write_json_file(faulted, o.json))
      std::printf("  faulted-run trajectory written to %s\n", o.json.c_str());
    else
      ok = false;
  }
  return ok ? 0 : 1;
}

int cmd_matrix(const Options& o) {
  // The Table 2 matrix (5 CPUs × 5 attacks) through the parallel runner;
  // bench/table2_matrix prints the full paper comparison.
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
      spec.fast_forward = o.spec.fast_forward;
      specs.push_back(spec);
    }

  runner::Executor ex(o.jobs);
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
int cmd_sweep(const Options& o) {
  const std::string& endpoints_csv = o.endpoints;
  if (endpoints_csv.empty()) {
    std::fprintf(stderr,
                 "whisper_cli sweep: --endpoints is required "
                 "(comma-separated host:port / tcp:host:port / unix:/path)\n");
    return 2;
  }

  const runner::RunSpec& spec = o.spec;

  std::vector<std::shared_ptr<client::Endpoint>> pool;
  for (const auto& ep : client::parse_endpoint_list(endpoints_csv))
    pool.push_back(client::make_endpoint(ep));

  client::SweepClient sweeper(o.sweep);
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

  if (!o.json.empty()) {
    std::string body;
    for (const std::string& line : r.trial_lines) body += line + "\n";
    body += r.done_line + "\n";
    if (!stats::write_text_file(o.json, body)) return 1;
    std::printf("  merged response stream written to %s\n", o.json.c_str());
  }

  if (o.verify) {
    // Invariant 13, checked the direct way: rerun the whole spec locally
    // and demand the distributed merge is the same bytes.
    const auto local = runner::run(spec, o.jobs);
    const bool same = r.trial_lines == client::canonical_trial_lines(local) &&
                      r.done_line == client::canonical_done_line(local);
    std::printf("  --verify: merged stream %s the local runner::run bytes\n",
                same ? "matches" : "DIVERGES from");
    if (!same) return 1;
  }

  std::printf("  %s\n", r.done_line.c_str());
  return 0;
}

struct Command {
  const char* name;
  const char* summary;
  std::initializer_list<std::string_view> rows;  // add_row() names
  void (*defaults)(Options& o);  // nullptr: RunSpec's own
  int (*run)(const Options& o);
};

const Command kCommands[] = {
    {"models", "list the CPU presets (the --cpu index)", {}, nullptr,
     cmd_models},
    {"tote", "time the Fig. 1 TET gadget: 8 probes",
     {"cpu", "trigger", "trace", "trace-out", "metrics-out",
      "no-fast-forward", "fast_forward"},
     nullptr, cmd_tote},
    {"leak", "run one attack on one machine",
     {"cpu", "secret", "attack", "defenses", "noise", "adaptive",
      "confidence_threshold", "batch_budget", "trace-out", "metrics-out",
      "no-fast-forward", "fast_forward"},
     [](Options& o) { o.spec.attack = "md"; }, cmd_leak},
    {"kaslr", "sweep --trials TET-KASLR trials through the runner",
     {"cpu", "defenses", "seed", "trials", "batches", "jobs", "json",
      "noise", "adaptive", "retries", "trial_cycle_budget", "trial_wall_budget",
      "verify_reset", "fault_plan", "no-fast-forward", "fast_forward",
      "trace-out", "metrics-out"},
     nullptr, cmd_kaslr},
    {"chaos", "fault-tolerance self-test: faulted run == clean run",
     {"attack", "defenses", "cpu", "trials", "jobs", "seed", "retries",
      "fault_plan", "trial_cycle_budget", "trial_wall_budget", "json",
      "no-fast-forward", "fast_forward"},
     [](Options& o) {
       o.spec.attack = "cc";
       o.spec.trials = 12;
       o.spec.base_seed = 12648430;
       o.spec.payload_bytes = 4;
       o.spec.batches = 2;
       o.spec.retries = 2;
       o.spec.trial_cycle_budget = 1000000000;
       o.spec.fault_plan = "throw@2;corrupt@5;stall@8";
       o.jobs = 4;
     },
     cmd_chaos},
    {"matrix", "the Table 2 matrix through the runner",
     {"jobs", "no-fast-forward", "fast_forward"}, nullptr, cmd_matrix},
    {"sweep", "shard a run across whisper_serve daemons and merge it",
     {"endpoints", "attack", "cpu", "trials", "seed", "defenses", "noise",
      "adaptive", "retries", "trial_cycle_budget", "trial_wall_budget",
      "verify_reset", "fault_plan", "no-fast-forward", "fast_forward",
      "chunk", "deadline-ms", "connect-timeout-ms", "failures",
      "flaky-plan", "verify", "json", "jobs"},
     [](Options& o) {
       o.spec.attack = "kaslr";
       o.spec.trials = 8;
     },
     cmd_sweep},
    {"attacks", "list the attack registry", {}, nullptr, cmd_attacks},
    {"defenses", "list the defense registry and its parameters", {}, nullptr,
     cmd_defenses},
};

/// `c`'s flag table. Every command also takes --list-attacks, and refuses
/// the flags that would run a different cell if they were ignored: the
/// retired defense aliases and --rounds, which whisper_cli never read.
stats::Flags command_flags(const Command& c, Options& o) {
  stats::Flags f(std::string("whisper_cli ") + c.name, c.summary);
  if (c.defaults != nullptr) c.defaults(o);
  for (const std::string_view row : c.rows) add_row(f, o, row);
  f.toggle("list-attacks", "print the attack registry instead",
           o.list_attacks);
  for (const char* alias : {"kpti", "flare", "fgkaslr"})
    f.refuse(alias, std::string("was removed; use --defense ") + alias);
  f.refuse("rounds",
           "is not a whisper_cli flag; kaslr takes its sweep rounds as "
           "--batches N",
           /*takes_value=*/true);
  return f;
}

void usage(std::FILE* out) {
  std::fprintf(out, "usage: whisper_cli <command> [flags]\n\ncommands:\n");
  for (const Command& c : kCommands)
    std::fprintf(out, "  %-10s %s\n", c.name, c.summary);
  std::fprintf(out, "\n`whisper_cli <command> --help` lists its flags\n");
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string cmd = argc > 1 ? argv[1] : "";
  Options o;
  if (cmd == "--list-attacks") return cmd_attacks(o);
  if (cmd == "--help" || cmd == "-h") {
    usage(stdout);
    for (const Command& c : kCommands)
      std::printf("\n%s", command_flags(c, o).help().c_str());
    return 0;
  }
  for (const Command& c : kCommands) {
    if (cmd != c.name) continue;
    stats::Flags flags = command_flags(c, o);
    flags.parse(argc, argv, 2);
    return o.list_attacks ? cmd_attacks(o) : c.run(o);
  }
  usage(stderr);
  return 2;
} catch (const std::exception& e) {
  // Spec/plan validation errors (unknown --attack, malformed --fault-plan,
  // ...) should read as a usage message, not a terminate() backtrace.
  std::fprintf(stderr, "whisper_cli: %s\n", e.what());
  return 2;
}

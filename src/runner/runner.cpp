#include "runner/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "fault/fault.h"
#include "os/machine.h"
#include "runner/machine_pool.h"
#include "stats/rng.h"

namespace whisper::runner {

namespace {

std::vector<std::uint8_t> payload_bytes(const RunSpec& spec) {
  // run()/run_many() fold the trial index into payload_seed, so multi-trial
  // channel runs move different payloads; a seed of K reproduces
  // bench_util's random_bytes(n, K) stream exactly.
  stats::Xoshiro256 rng(spec.payload_seed);
  std::vector<std::uint8_t> out(spec.payload_bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

const core::AttackInfo& attack_info_or_throw(const std::string& name) {
  const core::AttackInfo* info = core::find_attack(name);
  if (info == nullptr) {
    // List the valid keys: "unknown attack 'kalsr'" with no hint at the
    // registry vocabulary was a recurring trap.
    std::string msg = "runner: unknown attack '" + name + "' (registered: ";
    const std::vector<std::string> names = core::attack_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i) msg += ", ";
      msg += names[i];
    }
    throw std::invalid_argument(msg + ")");
  }
  return *info;
}

}  // namespace

const char* to_string(TrialErrorKind k) noexcept {
  switch (k) {
    case TrialErrorKind::kException: return "exception";
    case TrialErrorKind::kCycleBudget: return "cycle_budget";
    case TrialErrorKind::kWatchdog: return "watchdog";
    case TrialErrorKind::kResetDrift: return "reset_drift";
    case TrialErrorKind::kDegraded: return "degraded";
  }
  return "?";
}

void TrialOutcome::capture_unhandled(const std::string& what) {
  ok = false;
  if (attempts < 1) attempts = 1;
  errors.push_back(TrialError{TrialErrorKind::kException, attempts - 1,
                              "runner: escaped trial wrapper: " + what, "",
                              0});
}

void validate(const RunSpec& spec) {
  (void)attack_info_or_throw(spec.attack);
  defense::validate(spec.defenses);
  if (spec.retries < 0)
    throw std::invalid_argument("runner: retries must be >= 0");
  if (spec.trial_wall_budget < 0.0)
    throw std::invalid_argument("runner: trial_wall_budget must be >= 0");
  // Parse (and thereby validate) the fault plan; grammar errors surface
  // here, before any trial is scheduled.
  const fault::FaultPlan plan = fault::FaultPlan::parse(spec.fault_plan);
  if (plan.uses(fault::Kind::kDrop) || plan.uses(fault::Kind::kShortRead))
    throw std::invalid_argument(
        "runner: fault plan injects a transport fault ('drop'/'shortread'); "
        "those belong in the sweep client's flaky plan (whisper_cli sweep "
        "--flaky-plan), not in a trial plan");
  if (plan.uses(fault::Kind::kStall) && spec.trial_cycle_budget == 0)
    throw std::invalid_argument(
        "runner: fault plan injects 'stall' but trial_cycle_budget is 0 — "
        "nothing would bound the stalled trial");
  if (plan.uses(fault::Kind::kSleep) && spec.trial_wall_budget <= 0.0)
    throw std::invalid_argument(
        "runner: fault plan injects 'sleep' but trial_wall_budget is 0 — "
        "nothing would bound the sleeping trial");
}

std::string RunSpec::label() const {
  std::string out = "tet-";
  out += attack;
  out += " @ ";
  out += uarch::make_config(model).name;
  // Derived from the defense list, so +FGKASLR (and every future defense)
  // shows up — the hand-rolled kpti/flare pair silently dropped it.
  for (const defense::DefenseSpec& d : defenses) {
    out += " +";
    for (const char c : defense::format(d))
      out += (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
  }
  if (docker) out += " (docker)";
  if (noise.enabled()) out += " +noise:" + noise.name;
  if (adaptive) out += " (adaptive)";
  out += " x" + std::to_string(trials);
  return out;
}

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t index) {
  const std::uint64_t s = stats::SplitMix64(base_seed ^ index).next();
  return s ? s : 1;  // 0 would mean "derive from the CPU preset"
}

os::MachineOptions machine_options(const RunSpec& spec, std::uint64_t seed) {
  os::MachineOptions mo;
  mo.model = spec.model;
  mo.docker = spec.docker;
  mo.seed = seed;
  mo.noise = spec.noise;
  // Install the defense stack last, over the fields it rewrites. An empty
  // stack leaves mo untouched (mo.config stays unset), so defense-free
  // specs build byte-identical machines to the pre-defense-API ones.
  if (!spec.defenses.empty()) defense::apply(spec.defenses, mo);
  return mo;
}

namespace {

/// Detach the event log on every exit path — an attack aborted by a budget
/// breach must not leave the core tracing into a dead TrialResult.
class TraceGuard {
 public:
  TraceGuard(os::Machine& m, uarch::EventLog* log) : m_(m), attached_(log) {
    if (attached_) m_.core().set_trace(attached_);
  }
  ~TraceGuard() {
    if (attached_) m_.core().set_trace(nullptr);
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

 private:
  os::Machine& m_;
  uarch::EventLog* attached_;
};

/// The attack phase shared by both trial paths: `m` is either freshly
/// constructed or freshly reset() — by this point the two are
/// indistinguishable. `hook` (usually null) is the fault layer's
/// checkpoint injection.
TrialResult attack_phase(const RunSpec& spec, const core::AttackInfo& info,
                         std::uint64_t seed, os::Machine& m,
                         const std::function<void(os::Machine&)>& hook = {}) {
  TrialResult t;
  t.seed = seed;

  // The fast-forward knob is sticky on the core (it survives reset()), so
  // both the fresh and the pooled path must stamp the spec's choice before
  // the attack runs — a pooled machine may have last served a spec with the
  // other setting.
  m.core().set_fast_forward(spec.fast_forward);

  // Observability: PMU deltas (and optionally the full event log) over the
  // attack phase. Attaching the log must not perturb the run —
  // tests/test_obs.cpp checks the results stay byte-identical.
  TraceGuard trace(m, spec.collect_trace ? &t.events : nullptr);
  const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();

  core::AttackOptions opt;
  if (spec.batches > 0) opt.batches = spec.batches;
  opt.adaptive = spec.adaptive;
  opt.confidence_threshold = spec.confidence_threshold;
  opt.batch_budget = spec.batch_budget;
  opt.cycle_budget = spec.trial_cycle_budget;
  opt.wall_budget_seconds = spec.trial_wall_budget;
  opt.checkpoint_hook = hook;

  const std::unique_ptr<core::Attack> atk = info.make(m, opt);
  std::vector<std::uint8_t> payload;
  if (info.channel) payload = payload_bytes(spec);
  const core::AttackResult r = atk->run(payload);

  t.success = r.success;
  t.cycles = r.cycles;
  t.seconds = r.seconds;
  t.probes = r.probes;
  t.bytes = payload.size();
  t.byte_errors = r.byte_errors;
  t.found_slot = r.found_slot;
  t.confidence = r.confidence;
  t.gave_up = r.gave_up;
  t.tote = r.tote;

  t.pmu = uarch::pmu_delta(pmu_before, m.core().pmu().snapshot());
  t.topdown = obs::attribute_cycles(t.pmu);
  return t;
}

}  // namespace

TrialResult run_trial(const RunSpec& spec, std::uint64_t seed) {
  const core::AttackInfo& info = attack_info_or_throw(spec.attack);
  os::Machine m(machine_options(spec, seed));
  return attack_phase(spec, info, seed, m);
}

TrialResult run_trial(const RunSpec& spec, std::uint64_t seed,
                      os::Machine& m) {
  const core::AttackInfo& info = attack_info_or_throw(spec.attack);
  m.reset(seed);
  return attack_phase(spec, info, seed, m);
}

namespace {

/// Signals a pooled machine whose post-reset() digest no longer matches its
/// snapshot baseline; the retry loop treats it as "machine quarantined, try
/// again fresh".
struct ResetDriftError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Build the checkpoint hook injecting this attempt's stall/sleep faults.
/// Fire-once: the first checkpoint of the attack phase trips it, the budget
/// check right after turns it into a BudgetExceeded.
std::function<void(os::Machine&)> make_fault_hook(
    const RunSpec& spec, std::size_t index, int attempt,
    const fault::FaultPlan& plan) {
  const bool stall = plan.fires(fault::Kind::kStall, index, attempt);
  const bool sleep = plan.fires(fault::Kind::kSleep, index, attempt);
  if (!stall && !sleep) return {};
  const std::uint64_t stall_cycles = spec.trial_cycle_budget + 1;
  const double sleep_seconds = spec.trial_wall_budget + 0.05;
  auto fired = std::make_shared<bool>(false);
  return [stall, sleep, stall_cycles, sleep_seconds, fired](os::Machine& m) {
    if (*fired) return;
    *fired = true;
    if (stall) m.advance_time(stall_cycles);
    if (sleep)
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
  };
}

/// One attempt of one trial. Throws on failure: ResetDriftError (after
/// quarantining the pooled machine), core::BudgetExceeded, or whatever the
/// attack itself threw.
TrialResult attempt_trial(const RunSpec& spec, const core::AttackInfo& info,
                          std::uint64_t seed, std::size_t index, int attempt,
                          const fault::FaultPlan& plan, bool verify,
                          bool force_fresh, TrialOutcome& outcome,
                          MachinePool* shared_pool) {
  if (plan.fires(fault::Kind::kThrow, index, attempt))
    throw std::runtime_error("fault: injected throw (trial " +
                             std::to_string(index) + ", attempt " +
                             std::to_string(attempt) + ")");
  const std::function<void(os::Machine&)> hook =
      make_fault_hook(spec, index, attempt, plan);

  if (spec.reuse_machine && !force_fresh) {
    MachinePool& pool =
        shared_pool ? *shared_pool : MachinePool::this_thread();
    MachinePool::Lease lease = pool.acquire(spec, seed);
    os::Machine& m = lease.machine();
    m.reset(seed);
    if (plan.fires(fault::Kind::kCorrupt, index, attempt))
      m.memsys().phys().corrupt_frame_for_test();
    if (verify && m.state_digest() != m.baseline_digest()) {
      lease.quarantine();
      outcome.quarantined = true;
      throw ResetDriftError(
          "runner: pooled machine failed the post-reset() state digest "
          "check (trial " + std::to_string(index) + ", attempt " +
          std::to_string(attempt) + "); machine quarantined");
    }
    return attack_phase(spec, info, seed, m, hook);
  }
  os::Machine m(machine_options(spec, seed));
  return attack_phase(spec, info, seed, m, hook);
}

}  // namespace

/// One trial of `spec` as run()/run_many() schedule it: seed and payload
/// stream both derived from the trial index, identically for every attempt
/// — a retry replays the same (seed, payload) coordinates, which is what
/// keeps a recovered run bit-identical to an unfailed one. All failure
/// paths end as TrialError records; nothing escapes.
ScheduledTrial run_scheduled_trial(const RunSpec& spec, std::size_t i,
                                   const fault::FaultPlan& plan, bool verify,
                                   MachinePool* pool) {
  RunSpec per_trial = spec;
  // Decorrelate the payload stream per trial alongside the seed.
  per_trial.payload_seed = spec.payload_seed ^ i;
  const std::uint64_t seed = trial_seed(spec.base_seed, i);
  const core::AttackInfo& info = attack_info_or_throw(spec.attack);

  ScheduledTrial run;
  run.result.seed = seed;
  const int max_attempts = 1 + std::max(0, spec.retries);
  const auto record = [&](TrialErrorKind kind, int attempt,
                          const char* what) {
    run.outcome.errors.push_back(
        TrialError{kind, attempt, what, spec.attack, seed});
  };
  bool force_fresh = false;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    run.outcome.attempts = attempt + 1;
    try {
      run.result = attempt_trial(per_trial, info, seed, i, attempt, plan,
                                 verify, force_fresh, run.outcome, pool);
      run.outcome.ok = true;
      return run;
    } catch (const core::BudgetExceeded& e) {
      record(e.kind() == core::BudgetExceeded::Kind::kCycles
                 ? TrialErrorKind::kCycleBudget
                 : TrialErrorKind::kWatchdog,
             attempt, e.what());
    } catch (const ResetDriftError& e) {
      record(TrialErrorKind::kResetDrift, attempt, e.what());
      force_fresh = true;  // the pooled path just proved untrustworthy
    } catch (const std::exception& e) {
      record(TrialErrorKind::kException, attempt, e.what());
    }
  }
  // Every attempt failed: the trial degrades to an empty result slot that
  // the merge step skips. Seed stays filled so the slot is identifiable.
  run.result = TrialResult{};
  run.result.seed = seed;
  run.outcome.ok = false;
  run.outcome.errors.push_back(TrialError{
      TrialErrorKind::kDegraded, max_attempts - 1,
      "trial degraded: no attempt out of " + std::to_string(max_attempts) +
          " succeeded",
      spec.attack, seed});
  return run;
}

void fold(RunResult& r, ScheduledTrial t) {
  const TrialResult& res = t.result;
  const TrialOutcome& oc = t.outcome;
  r.total_attempts += static_cast<std::size_t>(std::max(1, oc.attempts));
  if (oc.quarantined) ++r.quarantined;
  for (const TrialError& e : oc.errors)
    ++r.error_counts[static_cast<std::size_t>(e.kind)];
  if (oc.ok) {
    ++r.completed;
    if (oc.attempts > 1) ++r.retried;
    r.successes += res.success ? 1 : 0;
    r.total_probes += res.probes;
    r.total_bytes += res.bytes;
    r.total_byte_errors += res.byte_errors;
    r.total_gave_up += res.gave_up;
    r.cycles.add(static_cast<double>(res.cycles));
    r.tote.merge(res.tote);
    for (std::size_t e = 0; e < uarch::kNumPmuEvents; ++e)
      r.pmu[e] += res.pmu[e];
    r.topdown.merge(res.topdown);
    r.events.append(res.events);
  } else {
    ++r.failed;
  }
  r.trials.push_back(std::move(t.result));
  r.outcomes.push_back(std::move(t.outcome));
}

namespace {

/// The merge step: fold per-trial results strictly in trial index order,
/// then finish the fields a fold cannot keep incrementally. Degraded trials
/// keep their (empty) slot but contribute nothing to the merged statistics
/// — an all-failed run yields zeroed summaries and an empty tote
/// histogram, never a throw from empty-histogram accessors.
RunResult merge_trials(const RunSpec& spec, int jobs, double wall_seconds,
                       std::vector<ScheduledTrial> runs) {
  RunResult out;
  out.spec = spec;
  out.jobs = jobs;
  out.wall_seconds = wall_seconds;
  out.trials.reserve(runs.size());
  out.outcomes.reserve(runs.size());
  for (ScheduledTrial& tr : runs) fold(out, std::move(tr));

  std::vector<double> secs;
  std::vector<double> confs;
  for (std::size_t i = 0; i < out.trials.size(); ++i) {
    if (!out.outcomes[i].ok) continue;
    secs.push_back(out.trials[i].seconds);
    confs.push_back(out.trials[i].confidence);
  }
  out.attempted = out.trials.size();
  out.seconds = stats::summarize(std::span<const double>(secs));
  out.confidence = stats::summarize(std::span<const double>(confs));
  return out;
}

}  // namespace

obs::MetricsRegistry to_metrics(const RunResult& r,
                                const std::string& prefix) {
  obs::MetricsRegistry reg;
  reg.set_counter(prefix + "run.trials", r.trials.size());
  reg.set_counter(prefix + "run.successes", r.successes);
  reg.set_counter(prefix + "run.probes", r.total_probes);
  reg.set_counter(prefix + "run.bytes", r.total_bytes);
  reg.set_counter(prefix + "run.byte_errors", r.total_byte_errors);
  reg.set_counter(prefix + "run.gave_up", r.total_gave_up);
  reg.import_pmu(r.pmu, prefix + "pmu.");
  reg.set_counter(prefix + "topdown.total_cycles", r.topdown.total_cycles);
  reg.set_counter(prefix + "topdown.retiring", r.topdown.retiring);
  reg.set_counter(prefix + "topdown.bad_speculation",
                  r.topdown.bad_speculation);
  reg.set_counter(prefix + "topdown.frontend_bound",
                  r.topdown.frontend_bound);
  reg.set_counter(prefix + "topdown.backend_bound", r.topdown.backend_bound);
  reg.import_summary(prefix + "sim_seconds", r.seconds);
  reg.import_summary(prefix + "confidence", r.confidence);
  reg.add_histogram(prefix + "tote", r.tote);

  // Failure accounting: attempted/completed/failed plus per-class error
  // counts, so a degraded run is fully visible in --metrics-out too.
  reg.set_counter(prefix + "run.attempted", r.attempted);
  reg.set_counter(prefix + "run.completed", r.completed);
  reg.set_counter(prefix + "run.failed", r.failed);
  reg.set_counter(prefix + "run.retried", r.retried);
  reg.set_counter(prefix + "run.quarantined", r.quarantined);
  reg.set_counter(prefix + "run.attempts", r.total_attempts);
  for (std::size_t k = 0; k < kNumTrialErrorKinds; ++k)
    reg.set_counter(
        prefix + "run.errors." + to_string(static_cast<TrialErrorKind>(k)),
        r.error_counts[k]);
  return reg;
}

RunResult run(const RunSpec& spec, Executor& ex, bool progress) {
  return std::move(run_many({spec}, ex, progress).front());
}

RunResult run(const RunSpec& spec, int jobs, bool progress) {
  Executor ex(jobs);
  return run(spec, ex, progress);
}

std::vector<RunResult> run_many(const std::vector<RunSpec>& specs,
                                Executor& ex, bool progress) {
  std::vector<fault::FaultPlan> plans;
  std::vector<char> verify;
  plans.reserve(specs.size());
  verify.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    validate(spec);  // fail before the fan-out: zero trials spawned
    plans.push_back(fault::FaultPlan::parse(spec.fault_plan));
    // Injected corruption is pointless unverified, so an active fault plan
    // forces the digest check on.
    verify.push_back(spec.verify_reset || !plans.back().empty() ? 1 : 0);
  }
  // Flatten every (spec, trial) pair into one task list so a matrix of
  // small cells still fills the pool.
  struct Task {
    std::size_t spec_idx;
    std::size_t trial_idx;
  };
  std::vector<Task> tasks;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const int n = specs[s].trials;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n > 0 ? n : 0); ++i)
      tasks.push_back({s, i});
  }

  Progress meter(specs.size() == 1
                     ? specs.front().label()
                     : "runner: " + std::to_string(specs.size()) + " specs",
                 tasks.size(), progress);
  WallTimer timer;
  std::vector<ScheduledTrial> flat = ex.map(
      tasks.size(),
      [&](std::size_t k) {
        const std::size_t s = tasks[k].spec_idx;
        return run_scheduled_trial(specs[s], tasks[k].trial_idx, plans[s],
                                   verify[s] != 0);
      },
      &meter);
  const double wall = timer.seconds();
  meter.finish(wall, ex.jobs());

  std::vector<RunResult> out;
  out.reserve(specs.size());
  std::size_t next = 0;
  for (const RunSpec& spec : specs) {
    const std::size_t n =
        spec.trials > 0 ? static_cast<std::size_t>(spec.trials) : 0;
    std::vector<ScheduledTrial> trials(
        std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(next)),
        std::make_move_iterator(flat.begin() +
                                static_cast<std::ptrdiff_t>(next + n)));
    next += n;
    out.push_back(merge_trials(spec, ex.jobs(), wall, std::move(trials)));
  }
  return out;
}

}  // namespace whisper::runner

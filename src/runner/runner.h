// whisper::runner — the parallel experiment runner.
//
// A RunSpec names one experiment cell: cpu model × attack × trial count ×
// knobs. run() fans the trials out across an Executor's thread pool; each
// trial runs on a private os::Machine seeded with trial_seed(base, index) —
// by default a per-worker machine reset() between trials (the snapshot
// fast path), or a fresh construction with reuse_machine = false — so the
// trial stream is a pure function of the spec and the results are
// bit-identical whatever --jobs is, and whichever trial path runs. The
// merge step folds each trial into one RunResult through fold(), always in
// trial index order.
//
//   runner::RunSpec spec{.model = uarch::CpuModel::CometLakeI9_10980XE,
//                        .attack = "kaslr",
//                        .trials = 32,
//                        .defenses = {defense::parse("kpti")}};
//   runner::Executor ex(/*jobs=*/8);
//   const runner::RunResult r = runner::run(spec, ex);
//
// Attacks are named, not enumerated: `attack` is a key into
// core::attack_registry(), so a new attack registered there is immediately
// runnable here. docs/REPRODUCING.md maps every paper figure/table to the
// spec that reproduces it; write_json_file() (json_writer.h) persists
// trajectories.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "defense/defense.h"
#include "noise/noise.h"
#include "obs/metrics.h"
#include "obs/topdown.h"
#include "os/machine.h"
#include "runner/executor.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "uarch/config.h"
#include "uarch/pmu.h"
#include "uarch/trace.h"

namespace whisper::fault {
class FaultPlan;
}

namespace whisper::runner {

class MachinePool;

/// One experiment cell. Everything a trial depends on lives here; nothing is
/// read from globals, which is what makes the fan-out safe.
struct RunSpec {
  uarch::CpuModel model = uarch::CpuModel::KabyLakeI7_7700;
  /// core::attack_registry() key ("cc", "md", "zbl", "rsb", "v1", "rewind",
  /// "kaslr").
  std::string attack = "kaslr";
  int trials = 1;
  std::uint64_t base_seed = 1;
  bool docker = false;

  /// The defense stack (defense::registry() keys + params) this cell runs
  /// under, applied to every trial's MachineOptions in list order. Every
  /// consumer — label(), machine_key(), machine_options(), validate(), the
  /// JSON trajectory and the wire — reads this one list.
  std::vector<defense::DefenseSpec> defenses;

  /// Interference profile each trial's Machine runs under (noise.off() by
  /// default — the engine is then never even attached, see os::Machine).
  noise::NoiseProfile noise{};

  // Attack knobs. 0 / default means "use the attack's own default".
  int batches = 0;  // argmax batches per byte (TET-KASLR: sweep rounds)
  std::size_t payload_bytes = 8;     // bytes moved per channel trial
  std::uint64_t payload_seed = 0x5eedULL;  // RNG stream for the payload

  // Adaptive decoding (core::AttackOptions passthrough): escalate batch
  // counts until the vote margin clears `confidence_threshold` or the
  // budget runs out.
  bool adaptive = false;
  double confidence_threshold = 0.5;
  int batch_budget = 0;  // 0 = 8× the initial batch count

  /// Attach a uarch::EventLog to each trial's core and keep the records in
  /// the TrialResult (and, merged in index order, in RunResult::events).
  /// Off by default: full event capture is memory-heavy, and with it off
  /// the core's trace hooks stay a branch on a null pointer.
  bool collect_trace = false;

  /// Trial fast path: each worker thread keeps one os::Machine per distinct
  /// construction key and reset()s it between trials instead of rebuilding
  /// page tables, caches and predictors from scratch. Results are
  /// bit-identical either way — the per-trial seed schedule is shared (see
  /// machine_options()) and tests/test_machine_reset.cpp pins equality —
  /// so this is on by default. micro_probes' BM_MachineConstruction and
  /// perfbench's `os.construct_ms` time the construction it saves.
  bool reuse_machine = true;

  /// Fast-forward execution mode (docs/PERFORMANCE.md): the core skips
  /// provably inert cycle spans in closed form instead of stepping the
  /// structural pipeline through them. Byte-identical either way —
  /// invariant 10 (docs/ARCHITECTURE.md), pinned across attacks × models ×
  /// noise by tests/test_machine_reset.cpp and tests/test_fast_forward.cpp
  /// — so it is on by default; micro_probes' BM_Trial pair times both.
  bool fast_forward = true;

  // --- Fault tolerance (docs/ARCHITECTURE.md "Failure semantics") ---------
  /// Extra attempts per failed trial. Retries reuse the trial's own
  /// trial_seed/payload_seed, so a recovered run is bit-identical to one
  /// that never failed.
  int retries = 0;
  /// Simulated-cycle cap per trial attempt; a breach becomes a
  /// TrialErrorKind::kCycleBudget error instead of a runaway trial. 0 = off.
  std::uint64_t trial_cycle_budget = 0;
  /// Host wall-clock watchdog per trial attempt, in seconds; a breach
  /// becomes TrialErrorKind::kWatchdog. 0 = off.
  double trial_wall_budget = 0.0;
  /// Compare each pooled machine's post-reset() state digest against its
  /// snapshot baseline; a mismatch quarantines the machine (kResetDrift)
  /// and the retry falls back to fresh construction. Costs a full frame
  /// scan per trial, so off by default — forced on while a fault plan is
  /// active (corruption injection is pointless unverified).
  bool verify_reset = false;
  /// fault::FaultPlan spec ("throw@2;corrupt@5;stall@8", see fault/fault.h)
  /// injected into this run's trials. Empty = no injection.
  std::string fault_plan;

  /// Human-readable "attack @ model ×trials" label for progress lines.
  [[nodiscard]] std::string label() const;
};

/// Validate a spec without running it: unknown attack names (the message
/// lists the registered keys), unknown/duplicate/malformed defenses,
/// malformed fault plans, negative retries, and stall/sleep injections with
/// no budget to trip all throw std::invalid_argument. run()/run_many() call
/// this before the fan-out, so a bad spec fails fast with zero trials
/// spawned.
void validate(const RunSpec& spec);

/// Why a trial attempt failed. One TrialError is recorded per failed
/// attempt; the enum is the JSON/metrics vocabulary ("run.errors.<name>").
enum class TrialErrorKind : std::uint8_t {
  kException,    // an exception escaped the trial (captured what())
  kCycleBudget,  // simulated-cycle budget exceeded (core::BudgetExceeded)
  kWatchdog,     // host wall-clock watchdog fired
  kResetDrift,   // pooled machine failed the post-reset() digest check
  kDegraded,     // every attempt failed; the trial's result slot is empty
};
inline constexpr std::size_t kNumTrialErrorKinds = 5;
[[nodiscard]] const char* to_string(TrialErrorKind k) noexcept;

struct TrialError {
  TrialErrorKind kind = TrialErrorKind::kException;
  int attempt = 0;       // which attempt failed (0 = first)
  std::string what;      // captured exception/budget message
  std::string attack;    // registry name, for flattened run_many logs
  std::uint64_t seed = 0;  // the trial_seed of the failing trial
};

/// Fault-layer account of one scheduled trial: how many attempts ran,
/// whether one succeeded, and every error on the way. Index-aligned with
/// RunResult::trials; trials-as-data is what crosses the ThreadPool
/// boundary — exceptions never do.
struct TrialOutcome {
  bool ok = false;
  int attempts = 0;
  /// A pooled machine failed its digest check during this trial and was
  /// evicted from the worker's pool.
  bool quarantined = false;
  std::vector<TrialError> errors;

  /// Executor::map hook: invoked when an exception escapes the trial
  /// wrapper itself (a harness bug, not an attack failure) so the slot
  /// still records it as data.
  void capture_unhandled(const std::string& what);
};

/// What one trial produced. Channel attacks fill bytes/byte_errors; KASLR
/// fills found_slot. `tote` is the trial's ToTE histogram (the Fig. 1b
/// frequency view for channels, per-slot scores for KASLR) — merged across
/// trials by RunResult.
struct TrialResult {
  std::uint64_t seed = 0;
  bool success = false;
  std::uint64_t cycles = 0;  // simulated cycles consumed by the trial
  double seconds = 0.0;      // cycles on the model's clock
  std::size_t probes = 0;    // gadget executions
  std::size_t bytes = 0;
  std::size_t byte_errors = 0;
  int found_slot = -1;
  /// Weakest decode confidence over the trial (vote margin in [0,1]), and
  /// how many decodes exhausted the adaptive budget below threshold.
  double confidence = 1.0;
  std::size_t gave_up = 0;
  stats::Histogram tote;

  /// PMU event deltas over the attack phase of the trial (machine setup
  /// excluded), and the top-down attribution computed from them —
  /// topdown's buckets sum to topdown.total_cycles exactly.
  uarch::PmuSnapshot pmu{};
  obs::TopDown topdown;
  /// Pipeline events of the trial; empty unless spec.collect_trace.
  uarch::EventLog events;
};

/// A finished RunSpec: the ordered per-trial results plus the merged view.
/// `trials` always has one slot per scheduled trial; a trial whose every
/// attempt failed keeps a default slot (seed filled in) and is excluded
/// from the merged statistics — `outcomes` says which and why, so an
/// all-failed run is still a valid, fully-accounted RunResult rather than
/// a crash inside the merge.
struct RunResult {
  RunSpec spec;
  int jobs = 1;
  double wall_seconds = 0.0;  // host wall clock for the whole fan-out
  std::vector<TrialResult> trials;
  /// Fault-layer account, index-aligned with `trials`.
  std::vector<TrialOutcome> outcomes;

  // Merge step (fold(), always in trial index order):
  std::size_t successes = 0;
  std::size_t total_probes = 0;
  std::size_t total_bytes = 0;
  std::size_t total_byte_errors = 0;
  std::size_t total_gave_up = 0;
  stats::Summary seconds;     // over per-trial simulated seconds
  stats::Summary confidence;  // over per-trial decode confidence
  stats::OnlineStats cycles;  // over per-trial simulated cycles
  stats::Histogram tote;      // all trials' ToTE observations merged
  uarch::PmuSnapshot pmu{};   // per-trial PMU deltas, summed
  obs::TopDown topdown;       // per-trial attributions, bucket-summed
  uarch::EventLog events;       // per-trial logs, appended in index order

  // Failure accounting (folded from `outcomes`):
  std::size_t attempted = 0;      // trials scheduled (== trials.size())
  std::size_t completed = 0;      // trials that produced a result
  std::size_t failed = 0;         // trials degraded after every attempt
  std::size_t retried = 0;        // trials that needed more than one attempt
  std::size_t quarantined = 0;    // trials that evicted a pooled machine
  std::size_t total_attempts = 0;  // attempts across all trials
  /// Errors by class, indexed by TrialErrorKind.
  std::array<std::size_t, kNumTrialErrorKinds> error_counts{};

  [[nodiscard]] bool all_succeeded() const noexcept {
    return successes == trials.size();
  }
  /// Every scheduled trial produced a result (possibly after retries).
  [[nodiscard]] bool all_completed() const noexcept { return failed == 0; }
};

/// Everything a finished run measured, as one named-metric registry:
/// "run.*" counters (trials, successes, probes, bytes, byte_errors,
/// gave_up), "pmu.*" counters (merged event deltas), "topdown.*" cycle
/// buckets, "sim_seconds.*" / "confidence.*" gauges and the merged "tote"
/// histogram. Feed this to MetricsRegistry::write_json_file()/
/// write_csv_file() for --metrics-out. `prefix` namespaces every name
/// ("cc." etc.), so several runs can merge into one registry without
/// colliding.
[[nodiscard]] obs::MetricsRegistry to_metrics(const RunResult& r,
                                              const std::string& prefix = "");

/// Per-trial seed derivation: base ⊕ trial index, whitened through
/// SplitMix64 so adjacent trials get decorrelated jitter streams, and kept
/// non-zero (0 tells os::Machine "use the CPU preset's seed").
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t base_seed,
                                       std::uint64_t index);

/// The single place a trial's MachineOptions are derived from its spec and
/// per-trial seed. Both trial paths — fresh construction and pooled
/// reset() — go through here, so the seed schedule cannot depend on whether
/// the Machine is rebuilt or reused.
[[nodiscard]] os::MachineOptions machine_options(const RunSpec& spec,
                                                 std::uint64_t seed);

/// Run a single trial of `spec` on a fresh Machine seeded with `seed`.
/// Pure: no shared state, safe to call from any thread. Throws
/// std::invalid_argument when spec.attack is not a registered name.
[[nodiscard]] TrialResult run_trial(const RunSpec& spec, std::uint64_t seed);

/// Reset-path variant: run the trial on a caller-provided machine, which
/// must have been constructed from machine_options(spec, <any seed>) and
/// snapshot()ted. The machine is reset(seed) first, so the result is
/// bit-identical to the fresh-Machine overload with the same arguments.
[[nodiscard]] TrialResult run_trial(const RunSpec& spec, std::uint64_t seed,
                                    os::Machine& m);

/// What one scheduled trial hands back through Executor::map (and, in the
/// serve daemon, down the wire): the result slot plus the fault-layer
/// account. Exceptions become entries in outcome.errors — they never cross
/// a pool boundary.
struct ScheduledTrial {
  TrialResult result;
  TrialOutcome outcome;

  /// Executor::map's last-resort hook (see TrialOutcome).
  void capture_unhandled(const std::string& what) {
    outcome.capture_unhandled(what);
  }
};

/// The merge step for one trial, and the only place a trial's accounting
/// lands: the failure counters from its outcome, its counts, ToTE
/// histogram, PMU deltas, top-down buckets and events when it completed,
/// then its result and outcome in the next slot. Fold trials in index
/// order. run()/run_many() finish with `attempted` and the seconds and
/// confidence summaries; the serve daemon folds each trial it streams, and
/// the sweep client folds serve::decode_trial() of each received line, so
/// a done line is the same bytes wherever its trials ran.
void fold(RunResult& r, ScheduledTrial t);

/// One trial of `spec` exactly as run()/run_many() schedule it: machine
/// seed and payload stream both derived from the trial `index`, fault
/// points fired per `plan`, retries replaying the same coordinates, digest
/// verification (`verify`) quarantining drifted machines. All failure
/// paths end as TrialError records; nothing escapes.
///
/// `pool` selects where pooled machines come from: nullptr uses the
/// calling thread's private MachinePool::this_thread() (the runner's
/// fan-out path); the serve daemon passes its shared, admission-controlled
/// pool instead. The trial stream is a pure function of (spec, index)
/// either way — pool identity cannot reach the results (invariant 8), so
/// serving a spec is byte-identical to sweeping it.
[[nodiscard]] ScheduledTrial run_scheduled_trial(const RunSpec& spec,
                                                 std::size_t index,
                                                 const fault::FaultPlan& plan,
                                                 bool verify,
                                                 MachinePool* pool = nullptr);

/// Fan spec.trials out over the executor and merge: run_many() of the one
/// spec. With `progress`, per-trial completion lines go to stderr. Unknown attack names throw
/// std::invalid_argument before any trial is scheduled.
[[nodiscard]] RunResult run(const RunSpec& spec, Executor& ex,
                            bool progress = false);
/// Convenience overload: a private Executor with `jobs` workers.
[[nodiscard]] RunResult run(const RunSpec& spec, int jobs,
                            bool progress = false);

/// Run several specs through one pool: every (spec, trial) pair becomes one
/// task, so a matrix of single-trial cells still saturates the workers.
/// Results come back in spec order, each merged on its own.
[[nodiscard]] std::vector<RunResult> run_many(
    const std::vector<RunSpec>& specs, Executor& ex, bool progress = false);

}  // namespace whisper::runner

// The unified attack interface.
//
// Every ToTE attack (TET-CC, TET-MD, TET-ZBL, TET-RSB, TET-V1, TET-KASLR,
// and the two KASLR baselines) derives from core::Attack and reports
// through one AttackResult: callers —
// the runner, the CLI, the bench harnesses — construct any attack by name
// via core::make_attack() (attacks/registry.h) and never touch a per-class
// result type.
//
//   auto atk = core::make_attack("md", m, {.adaptive = true});
//   const core::AttackResult r = atk->run(secret_bytes);
//   // r.bytes holds the leaked copy, r.confidence the weakest byte's vote
//   // margin, r.gave_up how many bytes exhausted their batch budget.
//
// run() plants the payload where the class's threat model says the secret
// lives (kernel memory for MD, the victim's LFB stream for ZBL, gadget-
// reachable data for RSB/V1, the shared page for CC; KASLR ignores it),
// leaks it back, and accounts wall time once, centrally — per-class timing
// code used to diverge (the V1/RSB paths never filled `seconds`).
//
// Adaptive decoding (opt-in via AttackOptions::adaptive): each byte starts
// at the class's default batch count and escalates exponentially until the
// ArgmaxAnalyzer vote margin clears `confidence_threshold` or the batch
// budget is spent — a byte that never converges is counted in `gave_up`
// instead of being reported as silently wrong.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/attacks/common.h"
#include "core/gadgets.h"
#include "os/machine.h"
#include "stats/histogram.h"

namespace whisper::core {

/// Knobs shared by every attack. Derived classes embed this as the base of
/// their own Options aggregate and add class-specific knobs; unset optionals
/// fall back to the class's defaults. Note the C++20 aggregate rule: with a
/// base class in the aggregate, designated initializers can only name the
/// *derived* members — base overrides take an inner braced list,
/// `Options{{.batches = 3}, .trainings_per_probe = 2}`.
struct AttackOptions {
  /// Argmax batches per byte (TET-KASLR: probe rounds per sweep).
  std::optional<int> batches;
  /// Transient-window kind override (TSX vs signal), where the class
  /// supports both.
  std::optional<WindowKind> window;

  /// Adaptive escalation: retry each byte with exponentially more batches
  /// until the vote-margin confidence clears `confidence_threshold` or the
  /// total reaches `batch_budget`.
  bool adaptive = false;
  double confidence_threshold = 0.5;
  /// Total batch cap per byte under `adaptive`; 0 = 8× the initial count.
  int batch_budget = 0;

  /// Fault-tolerance budgets, checked at every checkpoint() run() and the
  /// decode loops hit (per batch for channels, per sweep round for KASLR).
  /// A breach throws BudgetExceeded out of run() — the runner turns it into
  /// a structured TrialError instead of letting a runaway generated program
  /// wedge a worker. 0 disables the check.
  std::uint64_t cycle_budget = 0;        // simulated cycles per run()
  double wall_budget_seconds = 0.0;      // host wall clock per run()
  /// Test/fault-injection hook invoked at every checkpoint before the
  /// budget checks (whisper::fault uses it to stall the simulated clock or
  /// sleep the host thread mid-attack). Null in normal operation.
  std::function<void(os::Machine&)> checkpoint_hook;
};

/// Thrown out of Attack::run() when a checkpoint finds a budget breached.
/// kind() says which clock: the simulated cycle counter (a runaway or
/// stalled trial) or host wall time (the watchdog).
class BudgetExceeded : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t { kCycles, kWallClock };
  BudgetExceeded(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// What any attack reports. Channel attacks fill bytes/byte_errors against
/// the planted payload; TET-KASLR fills the found_*/slot fields instead.
struct AttackResult {
  std::string attack;          // registry name ("md", "kaslr", ...)
  bool success = false;
  std::vector<std::uint8_t> bytes;  // decoded payload (channels)
  std::size_t byte_errors = 0;
  std::size_t probes = 0;      // gadget executions
  std::uint64_t cycles = 0;    // simulated cycles, measured centrally
  double seconds = 0.0;        // cycles on the machine's clock
  /// Weakest per-byte decode confidence (ArgmaxAnalyzer vote margin for
  /// channels, slot vote margin for KASLR); 1.0 when nothing was decoded.
  double confidence = 1.0;
  /// Bytes (or sweeps) whose adaptive budget ran out below the threshold.
  std::size_t gave_up = 0;
  /// ToTE observations across all probes (Fig. 1b view); per-slot scores
  /// for KASLR.
  stats::Histogram tote;

  // TET-KASLR extras (found_slot = -1 for channel attacks).
  int found_slot = -1;
  std::uint64_t found_base = 0;
  std::uint64_t true_base = 0;
  /// Per-slot best scores (lower = mapped candidate), for plotting.
  std::vector<std::uint64_t> slot_scores;
};

class Attack {
 public:
  virtual ~Attack() = default;
  Attack(const Attack&) = delete;
  Attack& operator=(const Attack&) = delete;

  /// Registry name of this attack ("cc", "md", ...).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const AttackOptions& options() const noexcept { return opt_; }

  /// The unified entry point: plant `payload` as the secret, leak it back,
  /// and report. Wall time (cycles/seconds) and the byte-error comparison
  /// are accounted here, identically for every class.
  [[nodiscard]] AttackResult run(std::span<const std::uint8_t> payload);

 protected:
  Attack(os::Machine& m, std::string name, AttackOptions opt)
      : m_(m), opt_(std::move(opt)), name_(std::move(name)) {}

  /// Class body: plant the payload, probe, decode into `r`. Timing and the
  /// payload comparison are handled by run().
  virtual void execute(std::span<const std::uint8_t> payload,
                       AttackResult& r) = 0;

  /// Budget checkpoint: fire the injection hook (if any), then throw
  /// BudgetExceeded when the attack has burned past its simulated-cycle or
  /// wall-clock budget. run() checks once on entry and escalate() before
  /// every step (a channel batch, a KASLR sweep round), so a wedged decode
  /// loop is bounded too.
  void checkpoint();

  /// The adaptive escalation rule, shared by the channel decode (steps are
  /// batches) and TET-KASLR (steps are sweep rounds): run
  /// max(1, batches or `default_steps`) steps, then — under opt_.adaptive —
  /// double the total until `confidence()` clears the threshold or the
  /// budget (batch_budget, or 8× the initial count) is spent; ending below
  /// the threshold counts one r.gave_up. Every step is preceded by a
  /// checkpoint() and receives its 0-based index. Returns the final
  /// confidence().
  template <typename Step, typename Confidence>
  double escalate(int default_steps, AttackResult& r, Step&& step,
                  Confidence&& confidence) {
    const int n0 = std::max(1, opt_.batches.value_or(default_steps));
    int done = 0;
    const auto run_n = [&](int n) {
      for (int i = 0; i < n; ++i, ++done) {
        checkpoint();
        step(done);
      }
    };
    run_n(n0);
    if (opt_.adaptive) {
      const int budget =
          opt_.batch_budget > 0 ? std::max(opt_.batch_budget, n0) : 8 * n0;
      while (confidence() < opt_.confidence_threshold && done < budget)
        run_n(std::min(done, budget - done));
      if (confidence() < opt_.confidence_threshold) ++r.gave_up;
    }
    return confidence();
  }

  os::Machine& m_;
  AttackOptions opt_;

 private:
  std::string name_;
  // run()-relative budget origins, set on every run() entry.
  std::uint64_t run_start_cycle_ = 0;
  std::chrono::steady_clock::time_point run_start_wall_{};
};

/// A TET channel attack (cc, md, zbl, rsb, v1, rewind). Every byte is the
/// paper's one recipe: batches of a 256-test-value gadget sweep, decoded by
/// the batch argmax/argmin (or per-value mean) of ToTE. This class owns that
/// decode, the analyzer and the typed leak calls; a subclass supplies its
/// gadget, one sweep() and, in execute(), where the secret is planted.
class ChannelAttack : public Attack {
 public:
  /// Leak the byte the class's sweep reads through `target`: a virtual
  /// address (kernel for md, gadget-reachable for rsb/v1/rewind, the shared
  /// page for cc), or for zbl the byte the co-resident victim touches.
  [[nodiscard]] std::uint8_t leak_byte(std::uint64_t target);
  /// leak_byte() of target, target + 1, ..., target + len - 1.
  [[nodiscard]] std::vector<std::uint8_t> leak(std::uint64_t target,
                                               std::size_t len);

 protected:
  /// How a byte is read off the analyzer. Votes is the paper's per-batch
  /// argmax ballot; Mean decodes (and measures confidence) from the
  /// per-value mean ToTE — robust when a value's window only opens in a
  /// minority of batches, as happens for rewind's predictor-phase-sensitive
  /// probes.
  enum class DecodeBy : std::uint8_t { Votes, Mean };

  ChannelAttack(os::Machine& m, std::string name, AttackOptions opt,
                Polarity polarity, int default_batches,
                DecodeBy by = DecodeBy::Votes)
      : Attack(m, std::move(name), std::move(opt)),
        analyzer_(polarity),
        default_batches_(default_batches),
        by_(by) {}

  /// One batch for the byte at `target`: probe the 256 test values, feed
  /// each ToTE to analyzer_.add() and count every gadget run in r.probes.
  /// `batch` numbers this byte's batches from 0.
  virtual void sweep(std::uint64_t target, int batch, AttackResult& r) = 0;

  /// Decode the byte at `target` from a fresh analyzer through escalate(),
  /// folding its confidence (min), give-up and ToTE histogram into `r`.
  std::uint8_t decode_byte(std::uint64_t target, AttackResult& r);
  /// decode_byte() of target, ..., target + len - 1, appended to r.bytes.
  void decode_bytes(std::uint64_t target, std::size_t len, AttackResult& r);

  ArgmaxAnalyzer analyzer_;

 private:
  int default_batches_;
  DecodeBy by_;
};

}  // namespace whisper::core

// Tests for the runner's fault-tolerance layer and whisper::fault.
//
// The load-bearing property: a faulted sweep with enough retries is
// *bit-identical* to the unfaulted run — retries replay the trial's own
// (trial_seed, payload_seed) coordinates, and reset() ≡ fresh construction
// (tests/test_machine_reset.cpp) makes the fresh-machine fallback after a
// quarantine indistinguishable from the pooled path. On top of that, every
// failure class must end as data (TrialError records in the RunResult),
// never as an escaped exception or a terminated process — including a run
// where every single trial degrades.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attacks/registry.h"
#include "fault/fault.h"
#include "mem/phys_mem.h"
#include "os/machine.h"
#include "runner/executor.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "stats/json.h"

namespace whisper::runner {
namespace {

// A channel spec cheap enough to run with retries in a unit test.
RunSpec cheap_cc_spec(int trials) {
  RunSpec spec;
  spec.model = uarch::CpuModel::KabyLakeI7_7700;
  spec.attack = "cc";
  spec.trials = trials;
  spec.base_seed = 0xabcULL;
  spec.batches = 2;
  spec.payload_bytes = 2;
  spec.payload_seed = 0x11;
  return spec;
}

void expect_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);  // bit-identical, not approximately
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.byte_errors, b.byte_errors);
  EXPECT_EQ(a.found_slot, b.found_slot);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.tote.buckets(), b.tote.buckets());
}

std::size_t count_errors(const RunResult& r, TrialErrorKind kind) {
  return r.error_counts[static_cast<std::size_t>(kind)];
}

// ---------------------------------------------------------------------------
// whisper::fault — the plan grammar and its determinism.

TEST(FaultPlan, ParsesDeterministicPoints) {
  const auto plan = fault::FaultPlan::parse("throw@2;corrupt@5,stall@8");
  ASSERT_EQ(plan.points().size(), 3u);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.uses(fault::Kind::kThrow));
  EXPECT_TRUE(plan.uses(fault::Kind::kCorrupt));
  EXPECT_TRUE(plan.uses(fault::Kind::kStall));
  EXPECT_FALSE(plan.uses(fault::Kind::kSleep));

  // The bare form fires on the first attempt only.
  EXPECT_TRUE(plan.fires(fault::Kind::kThrow, 2, 0));
  EXPECT_FALSE(plan.fires(fault::Kind::kThrow, 2, 1));
  EXPECT_FALSE(plan.fires(fault::Kind::kThrow, 3, 0));
  EXPECT_FALSE(plan.fires(fault::Kind::kCorrupt, 2, 0));
  EXPECT_TRUE(plan.fires(fault::Kind::kCorrupt, 5, 0));
  EXPECT_TRUE(plan.fires(fault::Kind::kStall, 8, 0));
}

TEST(FaultPlan, AttemptAndEveryAttemptForms) {
  const auto at = fault::FaultPlan::parse("throw@3.1");
  EXPECT_FALSE(at.fires(fault::Kind::kThrow, 3, 0));
  EXPECT_TRUE(at.fires(fault::Kind::kThrow, 3, 1));
  EXPECT_FALSE(at.fires(fault::Kind::kThrow, 3, 2));

  const auto star = fault::FaultPlan::parse("sleep@4*");
  for (int attempt : {0, 1, 2, 7})
    EXPECT_TRUE(star.fires(fault::Kind::kSleep, 4, attempt));
  EXPECT_FALSE(star.fires(fault::Kind::kSleep, 5, 0));
}

TEST(FaultPlan, RandomFormIsSeededAndFirstAttemptOnly) {
  const auto a = fault::FaultPlan::parse("throw~500@99");
  const auto b = fault::FaultPlan::parse("throw~500@99");
  std::size_t fires = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(a.fires(fault::Kind::kThrow, i, 0),
              b.fires(fault::Kind::kThrow, i, 0))
        << "same spec must fire at the same trials";
    if (a.fires(fault::Kind::kThrow, i, 0)) ++fires;
    EXPECT_FALSE(a.fires(fault::Kind::kThrow, i, 1))
        << "random points fire on the first attempt only";
  }
  // ~50% rate: loose bounds, the point is "neither never nor always".
  EXPECT_GT(fires, 60u);
  EXPECT_LT(fires, 140u);
  // A different seed picks a different trial set.
  const auto c = fault::FaultPlan::parse("throw~500@100");
  bool any_difference = false;
  for (std::uint64_t i = 0; i < 200 && !any_difference; ++i)
    any_difference = a.fires(fault::Kind::kThrow, i, 0) !=
                     c.fires(fault::Kind::kThrow, i, 0);
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlan, EmptyAndMalformedSpecs) {
  EXPECT_TRUE(fault::FaultPlan::parse("").empty());
  EXPECT_TRUE(fault::FaultPlan::parse("  ").empty());
  for (const char* bad : {"bogus@1", "throw", "throw@", "throw@x", "@2",
                          "throw~@3", "throw~1200@3", "throw@1.",
                          "throw@99999999999999999999", "throw@1.4294967296"}) {
    EXPECT_THROW((void)fault::FaultPlan::parse(bad), std::invalid_argument)
        << "spec: " << bad;
  }
  // Empty segments between separators are tolerated, not an error.
  EXPECT_EQ(fault::FaultPlan::parse("throw@1;;corrupt@2").points().size(),
            2u);
  // The original spec string survives for labels/JSON.
  EXPECT_EQ(fault::FaultPlan::parse("throw@1").spec(), "throw@1");
}

// ---------------------------------------------------------------------------
// validate(): bad specs fail before the fan-out, with actionable messages.

TEST(Validate, UnknownAttackListsTheRegistry) {
  RunSpec spec = cheap_cc_spec(1);
  spec.attack = "prefetch";
  try {
    validate(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("prefetch"), std::string::npos);
    // Every registered key must appear in the message.
    for (const std::string& name : core::attack_names())
      EXPECT_NE(what.find(name), std::string::npos) << "missing: " << name;
  }
  EXPECT_THROW((void)run(spec, 1), std::invalid_argument);
}

TEST(Validate, RejectsBadFaultConfigurations) {
  RunSpec spec = cheap_cc_spec(1);
  spec.retries = -1;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = cheap_cc_spec(1);
  spec.fault_plan = "nope@1";
  EXPECT_THROW(validate(spec), std::invalid_argument);

  // stall/sleep injections demand a budget that would actually trip.
  spec = cheap_cc_spec(1);
  spec.fault_plan = "stall@0";
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.trial_cycle_budget = 1'000'000'000;
  EXPECT_NO_THROW(validate(spec));

  spec = cheap_cc_spec(1);
  spec.fault_plan = "sleep@0";
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.trial_wall_budget = 0.5;
  EXPECT_NO_THROW(validate(spec));
}

// ---------------------------------------------------------------------------
// Recovery: each error class is recorded, retried, and the recovered run is
// bit-identical to one that never failed.

TEST(FaultRecovery, InjectedThrowRetriesToBitIdentical) {
  RunSpec faulted = cheap_cc_spec(4);
  faulted.fault_plan = "throw@1";
  faulted.retries = 1;
  RunSpec clean = faulted;
  clean.fault_plan.clear();

  const RunResult f = run(faulted, 1);
  const RunResult c = run(clean, 1);

  EXPECT_TRUE(f.all_completed());
  EXPECT_EQ(f.failed, 0u);
  EXPECT_EQ(f.attempted, 4u);
  EXPECT_EQ(f.completed, 4u);
  EXPECT_EQ(f.retried, 1u);
  EXPECT_EQ(f.total_attempts, 5u);
  EXPECT_EQ(count_errors(f, TrialErrorKind::kException), 1u);
  EXPECT_EQ(count_errors(f, TrialErrorKind::kDegraded), 0u);

  ASSERT_EQ(f.outcomes.size(), 4u);
  EXPECT_TRUE(f.outcomes[1].ok);
  EXPECT_EQ(f.outcomes[1].attempts, 2);
  ASSERT_EQ(f.outcomes[1].errors.size(), 1u);
  EXPECT_EQ(f.outcomes[1].errors[0].kind, TrialErrorKind::kException);
  EXPECT_EQ(f.outcomes[1].errors[0].attempt, 0);
  EXPECT_NE(f.outcomes[1].errors[0].what.find("injected throw"),
            std::string::npos);
  EXPECT_EQ(f.outcomes[0].attempts, 1);

  ASSERT_EQ(f.trials.size(), c.trials.size());
  for (std::size_t i = 0; i < f.trials.size(); ++i)
    expect_identical(f.trials[i], c.trials[i]);
  EXPECT_EQ(f.tote.buckets(), c.tote.buckets());
  EXPECT_EQ(f.successes, c.successes);
}

TEST(FaultRecovery, CorruptQuarantinesAndFallsBackFresh) {
  RunSpec faulted = cheap_cc_spec(3);
  faulted.fault_plan = "corrupt@1";
  faulted.retries = 1;
  RunSpec clean = faulted;
  clean.fault_plan.clear();

  const RunResult f = run(faulted, 1);
  const RunResult c = run(clean, 1);

  EXPECT_EQ(f.failed, 0u);
  EXPECT_EQ(f.quarantined, 1u);
  EXPECT_EQ(count_errors(f, TrialErrorKind::kResetDrift), 1u);
  ASSERT_EQ(f.outcomes.size(), 3u);
  EXPECT_TRUE(f.outcomes[1].quarantined);
  EXPECT_TRUE(f.outcomes[1].ok);
  EXPECT_EQ(f.outcomes[1].attempts, 2);
  ASSERT_EQ(f.outcomes[1].errors.size(), 1u);
  EXPECT_EQ(f.outcomes[1].errors[0].kind, TrialErrorKind::kResetDrift);

  // The trial after the quarantine rebuilds a pooled machine from scratch;
  // every slot must still match the unfaulted run.
  for (std::size_t i = 0; i < f.trials.size(); ++i)
    expect_identical(f.trials[i], c.trials[i]);
}

TEST(FaultRecovery, StallTripsTheCycleBudgetThenRecovers) {
  RunSpec faulted = cheap_cc_spec(3);
  faulted.fault_plan = "stall@2";
  faulted.trial_cycle_budget = 1'000'000'000;  // generous: clean trials pass
  faulted.retries = 1;
  RunSpec clean = faulted;
  clean.fault_plan.clear();

  const RunResult f = run(faulted, 1);
  const RunResult c = run(clean, 1);

  EXPECT_EQ(f.failed, 0u);
  EXPECT_EQ(count_errors(f, TrialErrorKind::kCycleBudget), 1u);
  ASSERT_EQ(f.outcomes.size(), 3u);
  EXPECT_TRUE(f.outcomes[2].ok);
  EXPECT_EQ(f.outcomes[2].attempts, 2);
  ASSERT_EQ(f.outcomes[2].errors.size(), 1u);
  EXPECT_EQ(f.outcomes[2].errors[0].kind, TrialErrorKind::kCycleBudget);

  for (std::size_t i = 0; i < f.trials.size(); ++i)
    expect_identical(f.trials[i], c.trials[i]);
}

TEST(FaultRecovery, SleepTripsTheWatchdogThenRecovers) {
  RunSpec faulted = cheap_cc_spec(2);
  faulted.fault_plan = "sleep@0";
  faulted.trial_wall_budget = 0.5;  // injected sleep is budget + 0.05 s;
                                    // clean attempts finish far below this
  faulted.retries = 1;
  RunSpec clean = cheap_cc_spec(2);  // no wall budget: no flake risk

  const RunResult f = run(faulted, 1);
  const RunResult c = run(clean, 1);

  EXPECT_EQ(f.failed, 0u);
  EXPECT_EQ(count_errors(f, TrialErrorKind::kWatchdog), 1u);
  ASSERT_EQ(f.outcomes.size(), 2u);
  EXPECT_TRUE(f.outcomes[0].ok);
  EXPECT_EQ(f.outcomes[0].attempts, 2);
  ASSERT_EQ(f.outcomes[0].errors.size(), 1u);
  EXPECT_EQ(f.outcomes[0].errors[0].kind, TrialErrorKind::kWatchdog);

  // The watchdog is host wall-clock, but the trial *results* live on the
  // simulated clock — recovery must still be bit-identical.
  for (std::size_t i = 0; i < f.trials.size(); ++i)
    expect_identical(f.trials[i], c.trials[i]);
}

// The acceptance sweep: three error classes in one plan, exact per-class
// accounting, full recovery, and bit-identity both to the clean run and
// across --jobs.
TEST(FaultRecovery, ThreeClassSweepIsBitIdenticalAcrossJobs) {
  RunSpec faulted = cheap_cc_spec(6);
  faulted.fault_plan = "throw@1;corrupt@3;stall@4";
  faulted.trial_cycle_budget = 1'000'000'000;
  faulted.retries = 2;
  RunSpec clean = faulted;
  clean.fault_plan.clear();

  const RunResult seq = run(faulted, 1);
  const RunResult par = run(faulted, 4);
  const RunResult c = run(clean, 1);

  for (const RunResult* r : {&seq, &par}) {
    EXPECT_EQ(r->failed, 0u);
    EXPECT_EQ(r->completed, 6u);
    EXPECT_EQ(r->retried, 3u);
    EXPECT_EQ(r->quarantined, 1u);
    EXPECT_EQ(r->total_attempts, 9u);
    EXPECT_EQ(count_errors(*r, TrialErrorKind::kException), 1u);
    EXPECT_EQ(count_errors(*r, TrialErrorKind::kResetDrift), 1u);
    EXPECT_EQ(count_errors(*r, TrialErrorKind::kCycleBudget), 1u);
    EXPECT_EQ(count_errors(*r, TrialErrorKind::kWatchdog), 0u);
    EXPECT_EQ(count_errors(*r, TrialErrorKind::kDegraded), 0u);
  }

  ASSERT_EQ(seq.trials.size(), par.trials.size());
  for (std::size_t i = 0; i < seq.trials.size(); ++i) {
    expect_identical(seq.trials[i], par.trials[i]);
    expect_identical(seq.trials[i], c.trials[i]);
  }
  // Outcome accounting is schedule-independent too: fires() is a pure
  // function of (trial, attempt).
  for (std::size_t i = 0; i < seq.outcomes.size(); ++i) {
    EXPECT_EQ(seq.outcomes[i].ok, par.outcomes[i].ok);
    EXPECT_EQ(seq.outcomes[i].attempts, par.outcomes[i].attempts);
    EXPECT_EQ(seq.outcomes[i].quarantined, par.outcomes[i].quarantined);
    EXPECT_EQ(seq.outcomes[i].errors.size(), par.outcomes[i].errors.size());
  }
  // Whole-trajectory check, wall-clock fields normalised.
  RunResult p = par;
  p.wall_seconds = seq.wall_seconds;
  p.jobs = seq.jobs;
  EXPECT_EQ(to_json(seq), to_json(p));
}

TEST(FaultRecovery, EveryAttemptFaultDegradesJustThatTrial) {
  RunSpec spec = cheap_cc_spec(3);
  spec.fault_plan = "throw@2*";  // retries cannot save trial 2
  spec.retries = 2;
  RunSpec clean = cheap_cc_spec(3);

  const RunResult r = run(spec, 1);
  EXPECT_FALSE(r.all_completed());
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(count_errors(r, TrialErrorKind::kException), 3u);
  EXPECT_EQ(count_errors(r, TrialErrorKind::kDegraded), 1u);
  ASSERT_EQ(r.outcomes.size(), 3u);
  EXPECT_FALSE(r.outcomes[2].ok);
  EXPECT_EQ(r.outcomes[2].attempts, 3);
  ASSERT_EQ(r.outcomes[2].errors.size(), 4u);
  EXPECT_EQ(r.outcomes[2].errors.back().kind, TrialErrorKind::kDegraded);

  // The degraded slot keeps its seed but contributes nothing to the merge.
  EXPECT_EQ(r.trials[2].seed, trial_seed(spec.base_seed, 2));
  EXPECT_FALSE(r.trials[2].success);
  EXPECT_EQ(r.trials[2].tote.total(), 0u);
  const RunResult c = run(clean, 1);
  expect_identical(r.trials[0], c.trials[0]);
  expect_identical(r.trials[1], c.trials[1]);
  EXPECT_EQ(r.seconds.n, 2u);
  EXPECT_EQ(r.total_bytes, c.total_bytes - c.trials[2].bytes);
}

TEST(FaultRecovery, AllTrialsFailedIsStillAValidRunResult) {
  RunSpec spec = cheap_cc_spec(3);
  spec.trial_cycle_budget = 1;  // every attempt breaches immediately
  spec.retries = 1;

  const RunResult r = run(spec, 2);
  EXPECT_EQ(r.attempted, 3u);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.failed, 3u);
  EXPECT_EQ(r.total_attempts, 6u);
  EXPECT_EQ(r.successes, 0u);
  EXPECT_EQ(count_errors(r, TrialErrorKind::kCycleBudget), 6u);
  EXPECT_EQ(count_errors(r, TrialErrorKind::kDegraded), 3u);
  EXPECT_FALSE(r.all_completed());

  // Merged statistics are zeroed, not a throw from empty accessors.
  EXPECT_EQ(r.seconds.n, 0u);
  EXPECT_EQ(r.tote.total(), 0u);

  // The trajectory and metrics exports must survive the degenerate run.
  const std::string j = to_json(r);
  EXPECT_TRUE(stats::json_is_valid(j)) << j.substr(0, 200);
  EXPECT_NE(j.find("\"failed\":3"), std::string::npos);
  EXPECT_NE(j.find("\"cycle_budget\":6"), std::string::npos);
  EXPECT_NE(j.find("\"degraded\":3"), std::string::npos);
  const obs::MetricsRegistry reg = to_metrics(r);
  EXPECT_TRUE(stats::json_is_valid(reg.to_json()));
}

// ---------------------------------------------------------------------------
// The post-reset() digest itself, at the Machine level.

TEST(ResetDigest, DetectsSilentCorruptionAcrossReset) {
  const RunSpec spec = cheap_cc_spec(1);
  const std::uint64_t seed = trial_seed(spec.base_seed, 0);
  os::Machine m(machine_options(spec, seed));
  EXPECT_EQ(m.baseline_digest(), 0u) << "no snapshot yet";
  m.snapshot();
  const std::uint64_t baseline = m.baseline_digest();
  EXPECT_NE(baseline, 0u);
  EXPECT_EQ(m.state_digest(), baseline);

  // A normal trial + reset() round-trips to the baseline...
  (void)run_trial(spec, seed, m);
  m.reset(seed);
  EXPECT_EQ(m.state_digest(), baseline);

  // ...but a write that bypasses the undo log survives reset(): exactly the
  // drift the digest exists to catch.
  m.memsys().phys().corrupt_frame_for_test();
  EXPECT_NE(m.state_digest(), baseline);
  m.reset(seed);
  EXPECT_NE(m.state_digest(), baseline);
}

TEST(ResetDigest, IsSeedIndependentAfterReset) {
  // The pooled path resets with a *different* seed each trial; the digest
  // must still match the snapshot baseline (KASLR reseeding moves virtual
  // mappings, not physical frames).
  const RunSpec spec = cheap_cc_spec(1);
  os::Machine m(machine_options(spec, trial_seed(spec.base_seed, 0)));
  m.snapshot();
  const std::uint64_t baseline = m.baseline_digest();
  for (std::uint64_t i = 1; i < 4; ++i) {
    m.reset(trial_seed(spec.base_seed, i));
    EXPECT_EQ(m.state_digest(), baseline) << "trial " << i;
  }
}

TEST(ResetDigest, BaselineValueIsPinned) {
  // Recorded when every machine still wrote its own copy of the kernel
  // image: the shared copy-on-write image must leave both the digest
  // function and the digested memory exactly as they were.
  const RunSpec spec = cheap_cc_spec(1);
  os::Machine m(machine_options(spec, trial_seed(spec.base_seed, 0)));
  m.snapshot();
  EXPECT_EQ(m.baseline_digest(), 0x263f2a1673d0b900ull);
}

TEST(ResetDigest, CorruptingAnImageFrameSurvivesReset) {
  const RunSpec spec = cheap_cc_spec(1);
  const std::uint64_t seed = trial_seed(spec.base_seed, 0);
  os::Machine m(machine_options(spec, seed));
  m.snapshot();
  const std::uint64_t baseline = m.baseline_digest();
  mem::PhysicalMemory& phys = m.memsys().phys();
  // Nothing local yet: the lowest live frame is the image's first frame.
  ASSERT_EQ(phys.allocated_frames(), 0u);
  const mem::FrameImage& image = *phys.base();
  const auto shared = [&image] {
    std::vector<std::uint8_t> bytes(mem::PhysicalMemory::kFrameSize);
    image.copy_frame(image.first_frame(), bytes.data());
    return bytes;
  };
  const std::vector<std::uint8_t> pristine = shared();

  phys.corrupt_frame_for_test();
  EXPECT_NE(m.state_digest(), baseline);
  m.reset(seed);
  EXPECT_NE(m.state_digest(), baseline) << "reset() healed the corruption";

  EXPECT_EQ(shared(), pristine) << "the hook flipped the shared image";
  os::Machine other(machine_options(spec, seed));
  other.snapshot();
  EXPECT_EQ(other.baseline_digest(), baseline);
}

// ---------------------------------------------------------------------------
// Executor: exceptions never cross the ThreadPool boundary.

struct CapturingSlot {
  int value = 0;
  std::string error;
  void capture_unhandled(const std::string& what) { error = what; }
};

TEST(ExecutorFaults, CapturesEscapedExceptionsIntoSlots) {
  Executor ex(4);
  const auto out = ex.map(16, [](std::size_t i) -> CapturingSlot {
    if (i % 3 == 0)
      throw std::runtime_error("boom " + std::to_string(i));
    return CapturingSlot{static_cast<int>(i), ""};
  });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(out[i].error, "boom " + std::to_string(i));
      EXPECT_EQ(out[i].value, 0);
    } else {
      EXPECT_TRUE(out[i].error.empty());
      EXPECT_EQ(out[i].value, static_cast<int>(i));
    }
  }
}

TEST(ExecutorFaults, ThrowingTrialBodyLeavesItsSlotAsRecordedData) {
  for (int jobs : {1, 4}) {
    Executor ex(jobs);
    const auto out = ex.map(4, [](std::size_t i) -> ScheduledTrial {
      if (i == 2) throw std::runtime_error("harness bug");
      ScheduledTrial t;
      t.outcome.ok = true;
      t.outcome.attempts = 1;
      return t;
    });
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const TrialOutcome& o = out[i].outcome;
      if (i != 2) {
        EXPECT_TRUE(o.ok) << "jobs " << jobs << " slot " << i;
        EXPECT_TRUE(o.errors.empty());
        continue;
      }
      EXPECT_FALSE(o.ok) << "jobs " << jobs;
      EXPECT_EQ(o.attempts, 1);
      ASSERT_EQ(o.errors.size(), 1u);
      EXPECT_EQ(o.errors[0].kind, TrialErrorKind::kException);
      EXPECT_EQ(o.errors[0].attempt, 0);
      EXPECT_EQ(o.errors[0].what,
                "runner: escaped trial wrapper: harness bug");
    }
  }
}

TEST(ExecutorFaults, NonCapturableResultsRunAllItemsThenRethrowOnce) {
  for (int jobs : {1, 4}) {
    Executor ex(jobs);
    std::atomic<int> ran{0};
    try {
      (void)ex.map(12, [&ran](std::size_t i) -> int {
        ran.fetch_add(1);
        if (i == 5 || i == 7) throw std::runtime_error("task died");
        return static_cast<int>(i);
      });
      FAIL() << "expected std::runtime_error (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("2 task(s) threw"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("task died"), std::string::npos);
    }
    EXPECT_EQ(ran.load(), 12) << "every item still runs (jobs=" << jobs
                              << ")";
    // The pool survives the failed map — workers were not terminated.
    const auto again = ex.map(6, [](std::size_t i) {
      return static_cast<int>(i * 2);
    });
    ASSERT_EQ(again.size(), 6u);
    EXPECT_EQ(again[5], 10);
  }
}

// run_many: the fault plan (and its accounting) stays per-spec when trials
// from several specs interleave through one pool.
TEST(FaultRecovery, RunManyKeepsFaultAccountingPerSpec) {
  RunSpec faulted = cheap_cc_spec(3);
  faulted.fault_plan = "throw@0";
  faulted.retries = 1;
  RunSpec clean = cheap_cc_spec(2);
  clean.base_seed = 0x5117ULL;

  Executor ex(4);
  const auto results = run_many({faulted, clean}, ex);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(count_errors(results[0], TrialErrorKind::kException), 1u);
  EXPECT_EQ(results[0].retried, 1u);
  EXPECT_EQ(results[0].failed, 0u);
  EXPECT_EQ(count_errors(results[1], TrialErrorKind::kException), 0u);
  EXPECT_EQ(results[1].total_attempts, 2u);

  const RunResult solo = run(clean, 1);
  for (std::size_t i = 0; i < solo.trials.size(); ++i)
    expect_identical(results[1].trials[i], solo.trials[i]);
}

}  // namespace
}  // namespace whisper::runner

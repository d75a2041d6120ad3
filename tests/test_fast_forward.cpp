// Fast-forward subsystem coverage that the identity suites don't pin: the
// content-keyed decode cache (reuse across trials, content invalidation,
// survival across Machine::reset) and determinism of the fast-forward path
// across runner worker counts. Byte-identity of fast-forward itself lives
// in tests/test_machine_reset.cpp (FastForwardIdentityTest) and
// tests/test_differential.cpp (FastForwardDifferentialTest); this file also
// bounds the noise hook's host cost across fast-forwarded spans.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/attacks/registry.h"
#include "core/attacks/smt_channel.h"
#include "isa/builder.h"
#include "noise/noise.h"
#include "os/machine.h"
#include "runner/runner.h"
#include "support/sim_pin.h"
#include "uarch/core.h"

namespace whisper {
namespace {

using isa::ProgramBuilder;
using isa::Reg;
using FastForwardStats = uarch::Core::FastForwardStats;

isa::Program tiny_program(std::uint64_t k) {
  ProgramBuilder b;
  b.mov(Reg::RAX, k).add(Reg::RAX, 1).halt();
  return b.build();
}

/// Hits/misses accumulated by `body`, independent of whatever the machine
/// decoded before the probe started.
template <typename Fn>
uarch::Core::DecodeCacheStats delta(os::Machine& m, Fn&& body) {
  const auto before = m.core().decode_cache_stats();
  body();
  const auto after = m.core().decode_cache_stats();
  return {after.hits - before.hits, after.misses - before.misses};
}

TEST(DecodeCache, RerunningAProgramHitsTheCache) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  const isa::Program prog = tiny_program(5);

  const auto first = delta(m, [&] { (void)m.run_user(prog, {}, -1, 10'000); });
  EXPECT_EQ(first.misses, 1u);
  EXPECT_EQ(first.hits, 0u);

  const auto reruns = delta(m, [&] {
    for (int i = 0; i < 4; ++i) (void)m.run_user(prog, {}, -1, 10'000);
  });
  EXPECT_EQ(reruns.misses, 0u);
  EXPECT_EQ(reruns.hits, 4u);
}

TEST(DecodeCache, KeyIsContentNotObjectIdentity) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});

  // Two builds of the same source: distinct Program objects, same bytes.
  const isa::Program a = tiny_program(5);
  const isa::Program b = tiny_program(5);
  const auto same = delta(m, [&] {
    (void)m.run_user(a, {}, -1, 10'000);
    (void)m.run_user(b, {}, -1, 10'000);
  });
  EXPECT_EQ(same.misses, 1u) << "identical content decoded twice";
  EXPECT_EQ(same.hits, 1u);

  // A program that differs in one immediate is a different key.
  const isa::Program c = tiny_program(6);
  const auto changed = delta(m, [&] { (void)m.run_user(c, {}, -1, 10'000); });
  EXPECT_EQ(changed.misses, 1u) << "changed program served stale decode";
  EXPECT_EQ(changed.hits, 0u);
}

TEST(DecodeCache, SurvivesMachineReset) {
  // The cache is keyed by content, not by trial state, so the pooled-reset
  // trial path must keep it warm: that is where the cross-trial win comes
  // from.
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700, .seed = 0x11ull});
  const isa::Program prog = tiny_program(9);
  (void)m.run_user(prog, {}, -1, 10'000);
  m.snapshot();

  const auto across_resets = delta(m, [&] {
    for (int trial = 0; trial < 3; ++trial) {
      m.reset(0x20ull + static_cast<std::uint64_t>(trial));
      (void)m.run_user(prog, {}, -1, 10'000);
    }
  });
  EXPECT_EQ(across_resets.misses, 0u) << "reset() evicted the decode cache";
  EXPECT_EQ(across_resets.hits, 3u);
}

TEST(DecodeCache, AttackTrialsAreCacheBoundAfterTheFirst) {
  // A full registry attack compiles a handful of distinct gadget programs
  // and then reruns them thousands of times; after a first trial has warmed
  // the cache, later trials on the same machine must decode nothing new.
  runner::RunSpec spec;
  spec.attack = "cc";
  spec.trials = 1;
  spec.base_seed = 0xdecdeull;
  spec.payload_bytes = 1;

  os::Machine m(runner::machine_options(spec, 0x1ull));
  m.snapshot();
  (void)runner::run_trial(spec, 0x1ull, m);  // warm-up trial

  const auto warm = delta(m, [&] {
    for (std::uint64_t t = 2; t < 5; ++t) {
      (void)runner::run_trial(spec, t, m);
    }
  });
  EXPECT_EQ(warm.misses, 0u)
      << "attack re-decoded a program on a warm machine";
  EXPECT_GT(warm.hits, 0u);
}

TEST(FastForwardDeterminism, WorkerCountDoesNotChangeResults) {
  // Each runner worker owns a pooled machine and with it a private decode
  // cache; fanning the same spec across more workers must not perturb a
  // single trial bit. (Runs with fast_forward at its default: on.)
  runner::RunSpec spec;
  spec.model = uarch::CpuModel::SkylakeI7_6700;
  spec.attack = "cc";
  spec.trials = 6;
  spec.base_seed = 0x1f2f3ull;
  spec.payload_bytes = 2;
  ASSERT_TRUE(spec.fast_forward);

  const runner::RunResult one = runner::run(spec, /*jobs=*/1);
  const runner::RunResult two = runner::run(spec, /*jobs=*/2);
  ASSERT_EQ(one.trials.size(), two.trials.size());
  for (std::size_t i = 0; i < one.trials.size(); ++i) {
    const runner::TrialResult& a = one.trials[i];
    const runner::TrialResult& b = two.trials[i];
    EXPECT_EQ(a.seed, b.seed) << "trial " << i;
    EXPECT_EQ(a.success, b.success) << "trial " << i;
    EXPECT_EQ(a.cycles, b.cycles) << "trial " << i;
    EXPECT_EQ(a.bytes, b.bytes) << "trial " << i;
    EXPECT_EQ(a.probes, b.probes) << "trial " << i;
    EXPECT_EQ(a.tote.buckets(), b.tote.buckets()) << "trial " << i;
    EXPECT_EQ(a.pmu, b.pmu) << "trial " << i;
  }
}

TEST(FastForwardKnob, StickyAcrossResetAndReadable) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  EXPECT_TRUE(m.core().fast_forward());  // default on
  m.core().set_fast_forward(false);
  m.snapshot();
  m.reset(0x5ull);
  EXPECT_FALSE(m.core().fast_forward())
      << "reset() must not flip the knob — the runner stamps it per spec";
  m.core().set_fast_forward(true);
  EXPECT_TRUE(m.core().fast_forward());
}

// Fast-forward host counters: the simulated clock of a cc trial is exactly
// the stepped, skipped and advance()d cycles (the channel's handshake is an
// advance() charge), every attempt is accounted to a span or one bail-out,
// and with fast-forward off nothing is skipped. The counters survive
// reset().
FastForwardStats ff_delta(const FastForwardStats& a,
                          const FastForwardStats& b) {
  return {b.attempts - a.attempts,
          b.spans - a.spans,
          b.cycles_skipped - a.cycles_skipped,
          b.cycles_stepped - a.cycles_stepped,
          b.cycles_advanced - a.cycles_advanced,
          b.bail_retire - a.bail_retire,
          b.bail_complete - a.bail_complete,
          b.bail_issue - a.bail_issue,
          b.bail_alloc - a.bail_alloc,
          b.bail_fetch - a.bail_fetch,
          b.bail_noise - a.bail_noise,
          b.bail_smt - a.bail_smt};
}

TEST(FastForwardStats, SkippedPlusSteppedCyclesAreTheTrialCycles) {
  const std::vector<std::uint8_t> payload = {0xa5, 0x3c};
  for (const bool ff : {true, false}) {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    m.snapshot();
    m.core().set_fast_forward(ff);
    core::AttackOptions opt;
    opt.batches = 1;
    auto attack = core::make_attack("cc", m, opt);
    const FastForwardStats before = m.core().fast_forward_stats();
    const core::AttackResult r = attack->run(payload);
    const FastForwardStats d =
        ff_delta(before, m.core().fast_forward_stats());

    EXPECT_EQ(d.cycles_skipped + d.cycles_stepped + d.cycles_advanced,
              r.cycles)
        << (ff ? "ff on" : "ff off");
    EXPECT_EQ(d.attempts, d.spans + d.bail_retire + d.bail_complete +
                              d.bail_issue + d.bail_alloc + d.bail_fetch +
                              d.bail_noise + d.bail_smt);
    if (ff) {
      EXPECT_GT(d.spans, 0u);
      EXPECT_GT(d.cycles_skipped, 0u);
    } else {
      EXPECT_EQ(d.attempts, 0u);
      EXPECT_EQ(d.spans, 0u);
      EXPECT_EQ(d.cycles_skipped, 0u);
    }

    // Host-only and monotonic: reset() leaves the counters alone.
    const FastForwardStats kept = m.core().fast_forward_stats();
    m.reset(1);
    EXPECT_EQ(m.core().fast_forward_stats().attempts, kept.attempts);
    EXPECT_EQ(m.core().fast_forward_stats().cycles_stepped,
              kept.cycles_stepped);
  }
}

// Host cost of a noisy span: fast-forward asks the noise engine for its
// next due cycle and calls on_cycle only there (and once on the cycle
// before each jump), so an md trial under desktop noise, nearly all of
// whose cycles are skipped, makes a few hook calls per noise event rather
// than one per skipped cycle. Counting the calls must not move a byte.
class CountingInterference final : public uarch::CoreInterference {
 public:
  explicit CountingInterference(uarch::CoreInterference& inner)
      : inner_(inner) {}
  std::uint64_t on_cycle(std::uint64_t cycle) override {
    ++calls;
    return inner_.on_cycle(cycle);
  }
  [[nodiscard]] std::uint64_t next_due(std::uint64_t cycle) const override {
    return inner_.next_due(cycle);
  }
  std::uint64_t calls = 0;

 private:
  uarch::CoreInterference& inner_;
};

TEST(FastForwardNoise, NoisySpansCallTheHookPerEventNotPerCycle) {
  const std::vector<std::uint8_t> payload = {0xa5, 0x3c};
  struct Run {
    std::string image;  // AttackResult + PMU delta, pin-formatted
    FastForwardStats ff;
    std::uint64_t calls = 0;
  };
  os::MachineOptions opts;
  opts.model = uarch::CpuModel::KabyLakeI7_7700;
  opts.seed = 0xbe9cULL;
  opts.noise = noise::NoiseProfile::desktop();
  auto run = [&](bool counted) {
    os::Machine m(opts);
    EXPECT_NE(m.noise(), nullptr);
    CountingInterference counting(*m.noise());
    if (counted) m.core().set_interference(&counting);
    core::AttackOptions opt;
    opt.batches = 1;
    auto attack = core::make_attack("md", m, opt);
    const FastForwardStats ff_before = m.core().fast_forward_stats();
    const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();
    const core::AttackResult r = attack->run(payload);
    const uarch::PmuSnapshot pmu =
        uarch::pmu_delta(pmu_before, m.core().pmu().snapshot());
    EXPECT_GT(m.noise()->stats().timer_interrupts, 0u);
    EXPECT_GT(m.noise()->stats().dvfs_steps, 0u);
    return Run{test_support::PinText().attack(r).pmu("pmu", pmu).str(),
               ff_delta(ff_before, m.core().fast_forward_stats()),
               counting.calls};
  };
  const Run plain = run(false);
  const Run counted = run(true);

  EXPECT_EQ(plain.image, counted.image);
  EXPECT_EQ(plain.ff.cycles_skipped, counted.ff.cycles_skipped);
  EXPECT_EQ(plain.ff.spans, counted.ff.spans);
  EXPECT_EQ(plain.ff.bail_noise, counted.ff.bail_noise);
  ASSERT_GT(counted.ff.cycles_skipped, 0u);
  EXPECT_LT(counted.calls * 100, counted.ff.cycles_skipped)
      << counted.calls << " on_cycle calls for " << counted.ff.cycles_skipped
      << " skipped cycles";
}

// run_smt never fast-forwards, but it shares the issue/complete stages with
// run(): pin one SMT cell against the recorded simulation.
TEST(SimulationPin, SmtTransmitOnKabyLake) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  core::SmtCovertChannel ch(m);
  const std::vector<std::uint8_t> payload = {0xa5, 0x3c, 0x0f, 0xf0};
  const uarch::PmuSnapshot before = m.core().pmu().snapshot();
  const stats::ChannelReport r = ch.transmit(payload);
  const uarch::PmuSnapshot pmu =
      uarch::pmu_delta(before, m.core().pmu().snapshot());
  EXPECT_TRUE(test_support::matches_pin(
      test_support::pin_key(""),
      test_support::PinText()
          .u("byte_errors", r.byte_errors)
          .u("bit_errors", r.bit_errors)
          .u("sim_cycles", r.sim_cycles)
          .d("seconds", r.seconds)
          .u("threshold", ch.threshold())
          .u("probes", ch.probes())
          .pmu("pmu", pmu)
          .str()));
}

}  // namespace
}  // namespace whisper

// whisper::noise + the unified Attack API: determinism of every
// interference source, the observer-effect guarantee (a disabled profile
// cannot perturb a run), the adaptive escalation loop, and the attack
// registry round-trip.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/attacks/registry.h"
#include "noise/noise.h"
#include "os/machine.h"
#include "runner/runner.h"

namespace whisper {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

noise::NoiseProfile single_source(noise::NoiseKind kind, double intensity) {
  noise::NoiseProfile p;
  p.name = std::string("only-") + noise::to_string(kind);
  p.sources = {{kind, intensity}};
  return p;
}

// ---------------------------------------------------------------------------
// Profiles and presets
// ---------------------------------------------------------------------------

TEST(NoiseProfile, PresetsParseAndScale) {
  for (const std::string& name : noise::NoiseProfile::preset_names()) {
    const auto p = noise::NoiseProfile::by_name(name);
    ASSERT_TRUE(p.has_value()) << name;
    EXPECT_EQ(p->name, name);
  }
  EXPECT_FALSE(noise::NoiseProfile::by_name("datacenter").has_value());
  EXPECT_FALSE(noise::NoiseProfile::off().enabled());

  const noise::NoiseProfile desktop = noise::NoiseProfile::desktop();
  EXPECT_TRUE(desktop.enabled());
  const noise::NoiseProfile half = desktop.scaled(0.5);
  for (const noise::NoiseSource& s : desktop.sources)
    EXPECT_DOUBLE_EQ(half.intensity(s.kind), s.intensity * 0.5);
  EXPECT_FALSE(desktop.scaled(0.0).enabled());
}

// ---------------------------------------------------------------------------
// Determinism: every source is a pure function of (profile, seed, stream)
// ---------------------------------------------------------------------------

TEST(NoiseDeterminism, EachSourceIsSeedDeterministicAndActuallyFires) {
  const std::vector<std::uint8_t> payload = bytes_of("det!");
  for (std::size_t k = 0; k < noise::kNumNoiseKinds; ++k) {
    const auto kind = static_cast<noise::NoiseKind>(k);
    const noise::NoiseProfile profile = single_source(kind, 0.8);

    auto run_once = [&](noise::NoiseStats* stats_out) {
      os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700,
                     .seed = 77,
                     .noise = profile});
      const auto atk = core::make_attack("cc", m);
      const core::AttackResult r = atk->run(payload);
      if (stats_out != nullptr) {
        EXPECT_NE(m.noise(), nullptr);
        if (m.noise() != nullptr) *stats_out = m.noise()->stats();
      }
      return r;
    };

    noise::NoiseStats stats;
    core::AttackResult a;
    run_once(&stats);
    a = run_once(nullptr);
    const core::AttackResult b = run_once(nullptr);

    EXPECT_EQ(a.bytes, b.bytes) << noise::to_string(kind);
    EXPECT_EQ(a.cycles, b.cycles) << noise::to_string(kind);
    EXPECT_EQ(a.probes, b.probes) << noise::to_string(kind);
    EXPECT_EQ(a.confidence, b.confidence) << noise::to_string(kind);

    // The source must have injected something, or the test is vacuous.
    std::uint64_t fired = 0;
    switch (kind) {
      case noise::NoiseKind::SmtContention: fired = stats.contended_accesses; break;
      case noise::NoiseKind::TimerInterrupt: fired = stats.timer_interrupts; break;
      case noise::NoiseKind::Dvfs: fired = stats.dvfs_steps; break;
      case noise::NoiseKind::Prefetcher: fired = stats.prefetch_fills; break;
      case noise::NoiseKind::TlbShootdown: fired = stats.tlb_shootdowns; break;
    }
    EXPECT_GT(fired, 0u) << noise::to_string(kind);
  }
}

TEST(NoiseDeterminism, DifferentSeedsDifferentStreams) {
  const std::vector<std::uint8_t> payload = bytes_of("seed");
  const noise::NoiseProfile profile = noise::NoiseProfile::desktop();
  auto cycles_with_seed = [&](std::uint64_t seed) {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700,
                   .seed = seed,
                   .noise = profile});
    return core::make_attack("cc", m)->run(payload).cycles;
  };
  EXPECT_NE(cycles_with_seed(1), cycles_with_seed(2));
}

// ---------------------------------------------------------------------------
// Observer effect: a disabled profile is never attached, so it cannot
// change a single cycle.
// ---------------------------------------------------------------------------

TEST(NoiseObserverEffect, DisabledProfileChangesNoCycle) {
  const std::vector<std::uint8_t> payload = bytes_of("quiet");
  noise::NoiseProfile zeroed = noise::NoiseProfile::desktop().scaled(0.0);
  ASSERT_FALSE(zeroed.enabled());

  auto run_with = [&](const noise::NoiseProfile& p) {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700,
                   .seed = 99,
                   .noise = p});
    EXPECT_EQ(m.noise(), nullptr);  // never even constructed
    return core::make_attack("md", m)->run(payload);
  };
  const core::AttackResult off = run_with(noise::NoiseProfile::off());
  const core::AttackResult zero = run_with(zeroed);
  EXPECT_EQ(off.cycles, zero.cycles);
  EXPECT_EQ(off.probes, zero.probes);
  EXPECT_EQ(off.bytes, zero.bytes);
}

// ---------------------------------------------------------------------------
// Adaptive escalation
// ---------------------------------------------------------------------------

TEST(ArgmaxAnalyzer, ConfidenceGrowsMonotonicallyWithAgreeingBatches) {
  core::ArgmaxAnalyzer an(core::Polarity::Max);
  EXPECT_DOUBLE_EQ(an.confidence(), 0.0);  // no batches yet

  // Two disagreeing batches: a tie, margin 0.
  an.add(10, 500);
  an.add(20, 100);
  an.end_batch();
  an.add(20, 500);
  an.add(10, 100);
  an.end_batch();
  EXPECT_DOUBLE_EQ(an.confidence(), 0.0);

  // Consistent batches for value 10: margin climbs monotonically.
  double last = an.confidence();
  for (int i = 0; i < 6; ++i) {
    an.add(10, 500);
    an.add(20, 100);
    an.end_batch();
    EXPECT_GT(an.confidence(), last);
    last = an.confidence();
  }
  EXPECT_EQ(an.decode(), 10);
}

TEST(AdaptiveDecoding, BudgetCapsEscalationAndReportsGaveUp) {
  // An unreachable threshold (> 1, the margin's maximum) forces the loop to
  // its budget on every byte: probes are exactly budget × 256 per byte and
  // every byte is flagged, not silently wrong.
  const std::vector<std::uint8_t> payload = bytes_of("AB");
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700, .seed = 5});
  core::AttackOptions opt;
  opt.adaptive = true;
  opt.confidence_threshold = 1.5;
  opt.batch_budget = 4;
  const auto atk = core::make_attack("cc", m, opt);
  const core::AttackResult r = atk->run(payload);
  EXPECT_EQ(r.probes, payload.size() * 4u * 256u);
  EXPECT_EQ(r.gave_up, payload.size());
  EXPECT_TRUE(r.success);  // decode is still right; gave_up is the caveat
}

TEST(AdaptiveDecoding, CleanChannelStopsAtInitialBatches) {
  // rsb decodes with margin 1.0 on a quiet machine, so the adaptive loop
  // must not spend a single extra batch over the fixed configuration.
  const std::vector<std::uint8_t> payload = bytes_of("XY");
  auto probes_with = [&](bool adaptive) {
    os::Machine m({.model = uarch::CpuModel::RaptorLakeI9_13900K, .seed = 5});
    core::AttackOptions opt;
    opt.adaptive = adaptive;
    return core::make_attack("rsb", m, opt)->run(payload).probes;
  };
  EXPECT_EQ(probes_with(false), probes_with(true));
}

TEST(AdaptiveDecoding, RecoversCovertChannelUnderDesktopNoise) {
  // The acceptance scenario: at half desktop intensity the fixed batch
  // count mis-decodes a large fraction of bytes; the adaptive loop buys
  // enough extra batches to decode cleanly.
  runner::RunSpec spec;
  spec.attack = "cc";
  spec.trials = 2;
  spec.base_seed = 0x5109eULL;
  spec.noise = noise::NoiseProfile::desktop().scaled(0.5);
  spec.payload_bytes = 8;
  spec.payload_seed = 0xbeefULL;

  runner::RunSpec adaptive = spec;
  adaptive.adaptive = true;

  const runner::RunResult fixed_r = runner::run(spec, 2);
  const runner::RunResult adaptive_r = runner::run(adaptive, 2);
  ASSERT_GT(fixed_r.total_bytes, 0u);
  const double fixed_err =
      static_cast<double>(fixed_r.total_byte_errors) /
      static_cast<double>(fixed_r.total_bytes);
  const double adaptive_err =
      static_cast<double>(adaptive_r.total_byte_errors) /
      static_cast<double>(adaptive_r.total_bytes);
  EXPECT_GT(fixed_err, 0.20);
  EXPECT_LT(adaptive_err, 0.05);
  EXPECT_GT(adaptive_r.total_probes, fixed_r.total_probes);
}

// ---------------------------------------------------------------------------
// Registry round-trip
// ---------------------------------------------------------------------------

TEST(AttackRegistry, AllSevenAttacksRoundTrip) {
  const std::vector<std::string> expect = {"cc", "md",     "zbl",  "rsb",
                                           "v1", "rewind", "kaslr"};
  EXPECT_EQ(core::attack_names(), expect);

  const std::vector<std::uint8_t> payload = bytes_of("R");
  for (const core::AttackInfo& info : core::attack_registry()) {
    // Vulnerable model so every attack exercises its full decode path.
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700, .seed = 3});
    const auto atk = core::make_attack(info.name, m);
    ASSERT_NE(atk, nullptr) << info.name;
    EXPECT_EQ(atk->name(), info.name);
    const core::AttackResult r =
        atk->run(info.channel ? std::span<const std::uint8_t>(payload)
                              : std::span<const std::uint8_t>());
    EXPECT_EQ(r.attack, info.name);
    EXPECT_GT(r.cycles, 0u) << info.name;
    EXPECT_GT(r.seconds, 0.0) << info.name;  // the V1/RSB timing fix
    EXPECT_GT(r.probes, 0u) << info.name;
    if (info.channel) {
      EXPECT_EQ(r.bytes.size(), payload.size()) << info.name;
    }
  }
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  EXPECT_THROW((void)core::make_attack("prefetch", m),
               std::invalid_argument);
}

TEST(AttackRegistry, UnknownAttackNamesEveryRegisteredAttack) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  try {
    (void)core::make_attack("kalsr", m);
    FAIL() << "make_attack accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown attack 'kalsr' (registered: cc, md, zbl, rsb, v1, "
                 "rewind, kaslr)");
  }
}

}  // namespace
}  // namespace whisper

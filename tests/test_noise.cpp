// whisper::noise + the unified Attack API: determinism of every
// interference source, the observer-effect guarantee (a disabled profile
// cannot perturb a run), the adaptive escalation loop, and the attack
// registry round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/attacks/registry.h"
#include "noise/noise.h"
#include "os/machine.h"
#include "runner/runner.h"
#include "stats/rng.h"

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
// next_due: the closed form the core uses across a fast-forwarded span
// ---------------------------------------------------------------------------

// One event of a drive: the cycle a hook fired on and what it returned (a
// timer-interrupt handler cost, or an access's latency delta).
struct HookEvent {
  std::uint64_t cycle = 0;
  std::int64_t value = 0;
  bool operator==(const HookEvent&) const = default;
};

struct Drive {
  std::vector<HookEvent> interrupts;
  std::vector<HookEvent> deltas;
  noise::NoiseStats stats;
  double dvfs_scale = 0.0;
  std::uint64_t on_cycle_calls = 0;
};

// A seeded access stream over [0, kDriveCycles). A structural access runs
// on a cycle the core steps (on_cycle(cycle) first); an out-of-band one
// lands after the clock reached `cycle` without a hook call on it, as an
// access made between two runs does.
struct Access {
  std::uint64_t cycle = 0;
  bool structural = true;
  mem::AccessResult res;
};

constexpr std::uint64_t kDriveCycles = 3'000'000;

std::vector<Access> access_stream(std::uint64_t seed) {
  stats::Xoshiro256 rng(seed);
  std::vector<Access> out;
  for (std::uint64_t c = 1 + rng.next_below(4'000); c < kDriveCycles;
       c += 1 + rng.next_below(4'000)) {
    Access a;
    a.cycle = c;
    a.structural = rng.next_below(4) != 0;
    a.res.paddr = 0x100000 + 64 * rng.next_below(4096);
    a.res.cache_level = 1 + static_cast<int>(rng.next_below(4));
    a.res.walk_cycles = rng.next_below(3) == 0 ? 30 : 0;
    out.push_back(a);
  }
  return out;
}

void record_cycle(noise::NoiseEngine& e, std::uint64_t cycle, Drive& d) {
  const std::uint64_t handler = e.on_cycle(cycle);
  ++d.on_cycle_calls;
  if (handler != 0)
    d.interrupts.push_back({cycle, static_cast<std::int64_t>(handler)});
}

void record_access(noise::NoiseEngine& e, const Access& a, Drive& d) {
  d.deltas.push_back({a.cycle, e.on_access({}, a.res)});
}

void finish(const noise::NoiseEngine& e, Drive& d) {
  d.stats = e.stats();
  d.dvfs_scale = e.dvfs_scale();
}

// The per-cycle walk: on_cycle on every cycle the clock passes.
Drive walk_every_cycle(noise::NoiseEngine& e, const std::vector<Access>& as) {
  Drive d;
  std::size_t i = 0;
  for (std::uint64_t c = 0; c < kDriveCycles; ++c) {
    for (; i < as.size() && as[i].cycle == c && !as[i].structural; ++i)
      record_access(e, as[i], d);
    record_cycle(e, c, d);
    for (; i < as.size() && as[i].cycle == c; ++i) record_access(e, as[i], d);
  }
  finish(e, d);
  return d;
}

// Core::try_fast_forward's rule: jump to next_due with one on_cycle on the
// cycle before it, then on_cycle on the due cycle itself. Structural
// access cycles are stepped, so they get their own on_cycle. (An interrupt
// from the jump's call would land on a cycle the per-cycle walk has none.)
Drive walk_next_due(noise::NoiseEngine& e, const std::vector<Access>& as) {
  Drive d;
  auto fast_forward = [&](std::uint64_t& c, std::uint64_t horizon) {
    while (c < horizon) {
      const std::uint64_t quiet = std::min(horizon, e.next_due(c));
      if (quiet > c) {
        record_cycle(e, quiet - 1, d);
        c = quiet;
      } else {
        record_cycle(e, c++, d);
      }
    }
  };
  std::uint64_t c = 0;
  for (const Access& a : as) {
    fast_forward(c, a.cycle);
    if (a.structural) record_cycle(e, c++, d);
    record_access(e, a, d);
  }
  fast_forward(c, kDriveCycles);
  finish(e, d);
  return d;
}

TEST(NoiseNextDue, ClosedFormWalkMatchesPerCycleWalk) {
  std::vector<noise::NoiseProfile> profiles = {
      noise::NoiseProfile::desktop(), noise::NoiseProfile::noisy_server()};
  for (std::size_t k = 0; k < noise::kNumNoiseKinds; ++k)
    profiles.push_back(single_source(static_cast<noise::NoiseKind>(k), 1.0));

  const std::vector<Access> accesses = access_stream(0xacce55ULL);
  for (const noise::NoiseProfile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    // Each engine mutates its own memory system (TLB shootdowns, prefetch
    // and sibling fills), as it would inside a Machine.
    os::Machine ma(os::MachineOptions{});
    os::Machine mb(os::MachineOptions{});
    noise::NoiseEngine a(profile, 0x5eedULL);
    noise::NoiseEngine b(profile, 0x5eedULL);
    a.attach(&ma.memsys());
    b.attach(&mb.memsys());

    const Drive per_cycle = walk_every_cycle(a, accesses);
    const Drive closed = walk_next_due(b, accesses);

    EXPECT_EQ(per_cycle.interrupts, closed.interrupts);
    EXPECT_EQ(per_cycle.deltas, closed.deltas);
    EXPECT_EQ(per_cycle.stats.contended_accesses,
              closed.stats.contended_accesses);
    EXPECT_EQ(per_cycle.stats.contention_cycles,
              closed.stats.contention_cycles);
    EXPECT_EQ(per_cycle.stats.timer_interrupts, closed.stats.timer_interrupts);
    EXPECT_EQ(per_cycle.stats.dvfs_steps, closed.stats.dvfs_steps);
    EXPECT_EQ(per_cycle.stats.prefetch_fills, closed.stats.prefetch_fills);
    EXPECT_EQ(per_cycle.stats.tlb_shootdowns, closed.stats.tlb_shootdowns);
    EXPECT_EQ(per_cycle.dvfs_scale, closed.dvfs_scale);
    // The closed form is the point: a few calls per event, not per cycle.
    EXPECT_LT(closed.on_cycle_calls, kDriveCycles / 100);
  }
}

TEST(NoiseNextDue, NoCycleSourceIsNeverDueAndUnscheduledIsDueNow) {
  noise::NoiseEngine smt(single_source(noise::NoiseKind::SmtContention, 1.0),
                         1);
  EXPECT_EQ(smt.next_due(123), ~std::uint64_t{0});

  noise::NoiseEngine timer(
      single_source(noise::NoiseKind::TimerInterrupt, 1.0), 1);
  EXPECT_EQ(timer.next_due(123), 123u);  // not yet scheduled
  EXPECT_EQ(timer.on_cycle(123), 0u);    // draws the first tick
  const std::uint64_t tick = timer.next_due(124);
  EXPECT_GT(tick, 124u);
  EXPECT_EQ(timer.next_due(tick + 7), tick + 7);  // overdue: due now
  EXPECT_NE(timer.on_cycle(tick), 0u);
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

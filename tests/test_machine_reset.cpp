// The snapshot/reset contract: a reset() Machine is bit-identical to a
// freshly constructed one. This is the guard rail under the runner's trial
// fast path — if any microarchitectural structure (cache set, TLB way, LFB
// entry, BPU table, PMU counter, RNG stream) leaks state across reset, the
// pooled-machine path silently stops reproducing the paper's numbers. The
// suites here pin identity at every layer: raw PhysicalMemory pool
// semantics, full AttackResult equality for every registry attack on every
// CPU preset with and without interference, trace/metrics byte streams
// through the runner, and the per-trial seed schedule itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/attacks/registry.h"
#include "mem/phys_mem.h"
#include "noise/noise.h"
#include "obs/chrome_trace.h"
#include "os/machine.h"
#include "runner/runner.h"
#include "support/sim_pin.h"
#include "uarch/config.h"
#include "uarch/pmu.h"

namespace whisper {
namespace {

// ---------------------------------------------------------------------------
// PhysicalMemory pool semantics: the layer everything above leans on.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFrame = mem::PhysicalMemory::kFrameSize;

TEST(PhysMemPool, UnwrittenFramesReadZero) {
  mem::PhysicalMemory pm;
  EXPECT_EQ(pm.read8(0x0), 0u);
  EXPECT_EQ(pm.read64(0x123456789), 0u);
  EXPECT_EQ(pm.allocated_frames(), 0u);  // reads never allocate
}

TEST(PhysMemPool, Write64AcrossFrameBoundary) {
  mem::PhysicalMemory pm;
  const std::uint64_t addr = kFrame - 4;  // straddles frames 0 and 1
  pm.write64(addr, 0x1122334455667788ull);
  EXPECT_EQ(pm.read64(addr), 0x1122334455667788ull);
  EXPECT_EQ(pm.allocated_frames(), 2u);
  EXPECT_EQ(pm.read8(kFrame - 1), 0x55u);  // little-endian byte 3
  EXPECT_EQ(pm.read8(kFrame), 0x44u);      // byte 4, first of frame 1
}

TEST(PhysMemPool, ResetRestoresBaselineAndFreesNewFrames) {
  mem::PhysicalMemory pm;
  pm.write64(0x1000, 0xaaaaull);
  pm.write64(0x5000, 0xbbbbull);
  const std::size_t baseline_frames = pm.allocated_frames();
  pm.snapshot();
  EXPECT_TRUE(pm.snapshotted());
  EXPECT_EQ(pm.dirty_frames(), 0u);

  pm.write64(0x1000, 0xdeadull);      // dirty a baseline frame
  pm.write64(0x900000, 0xbeefull);    // allocate a new one
  EXPECT_EQ(pm.dirty_frames(), 2u);

  pm.reset();
  EXPECT_EQ(pm.read64(0x1000), 0xaaaaull);
  EXPECT_EQ(pm.read64(0x5000), 0xbbbbull);
  EXPECT_EQ(pm.read64(0x900000), 0u);  // freed and reads as never-written
  EXPECT_EQ(pm.allocated_frames(), baseline_frames);
  EXPECT_EQ(pm.dirty_frames(), 0u);
}

TEST(PhysMemPool, DirtyFrameCountingIsPerFrame) {
  mem::PhysicalMemory pm;
  pm.write8(0x0, 1);
  pm.snapshot();
  pm.write8(0x1, 2);
  pm.write8(0x2, 3);  // same frame: still one dirty frame
  EXPECT_EQ(pm.dirty_frames(), 1u);
  pm.write8(kFrame, 4);  // second frame (freshly allocated)
  EXPECT_EQ(pm.dirty_frames(), 2u);
  pm.reset();
  EXPECT_EQ(pm.dirty_frames(), 0u);
}

TEST(PhysMemPool, FreedSlotsAreReusedAndZeroed) {
  mem::PhysicalMemory pm;
  pm.write8(0x0, 1);
  pm.snapshot();

  // Repeated trial cycles allocating the same transient frames: the arena
  // must stop growing after the first cycle (slot reuse), and every reused
  // slot must read as zero-filled.
  std::size_t pool_after_first = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (std::uint64_t f = 1; f <= 8; ++f) {
      EXPECT_EQ(pm.read64(f * kFrame + 8), 0u)
          << "reused slot leaked bytes (cycle " << cycle << " frame " << f
          << ")";
      pm.write64(f * kFrame + 8, 0xf00d0000ull + f);
    }
    pm.reset();
    if (cycle == 0) pool_after_first = pm.pool_frames();
    EXPECT_EQ(pm.pool_frames(), pool_after_first)
        << "arena grew on cycle " << cycle;
  }
}

TEST(PhysMemPool, ResetBeforeSnapshotThrows) {
  mem::PhysicalMemory pm;
  EXPECT_THROW(pm.reset(), std::logic_error);
}

TEST(PhysMemPool, ReSnapshotMovesTheBaseline) {
  mem::PhysicalMemory pm;
  pm.write8(0x0, 1);
  pm.snapshot();
  pm.write8(0x0, 2);
  pm.snapshot();  // re-baseline: the value 2 is now what reset restores
  pm.write8(0x0, 3);
  pm.reset();
  EXPECT_EQ(pm.read8(0x0), 2u);
}

// The read-only base layer: a shared FrameImage under the local frames, as
// every Machine has for its kernel image.

std::shared_ptr<const mem::FrameImage> three_frame_image() {
  std::vector<std::uint8_t> bytes(3 * kFrame);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return std::make_shared<const mem::FrameImage>(16, std::move(bytes));
}

TEST(PhysMemPool, ImageReadsGoThroughWithoutAllocating) {
  const auto image = three_frame_image();
  mem::PhysicalMemory pm;
  pm.set_base(image);
  EXPECT_EQ(pm.read8(16 * kFrame + 3), image->frame(16)[3]);
  std::uint64_t word = 0;
  for (int i = 7; i >= 0; --i) word = (word << 8) | image->frame(18)[8 + i];
  EXPECT_EQ(pm.read64(18 * kFrame + 8), word);
  const std::vector<std::uint8_t> straddle = pm.read_bytes(17 * kFrame - 4, 8);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(straddle[i], image->frame(16)[kFrame - 4 + i]);
    EXPECT_EQ(straddle[4 + i], image->frame(17)[i]);
  }
  EXPECT_EQ(pm.read8(16 * kFrame - 1), 0u);  // just below the image
  EXPECT_EQ(pm.read8(19 * kFrame), 0u);      // just past it
  EXPECT_EQ(pm.allocated_frames(), 0u);
}

TEST(PhysMemPool, ImageWritesAreCopyOnWriteAndPrivate) {
  const auto image = three_frame_image();
  const std::vector<std::uint8_t> pristine(image->frame(16),
                                           image->frame(16) + 3 * kFrame);
  mem::PhysicalMemory a;
  mem::PhysicalMemory b;
  a.set_base(image);
  b.set_base(image);
  a.write8(17 * kFrame + 5, 0xee);
  EXPECT_EQ(a.read8(17 * kFrame + 5), 0xeeu);
  EXPECT_EQ(a.read8(17 * kFrame + 6), image->frame(17)[6])
      << "the copy keeps the rest of the image frame";
  EXPECT_EQ(a.allocated_frames(), 1u);
  EXPECT_EQ(b.read8(17 * kFrame + 5), image->frame(17)[5]);
  EXPECT_EQ(b.allocated_frames(), 0u);
  EXPECT_TRUE(std::equal(pristine.begin(), pristine.end(), image->frame(16)))
      << "the shared image was written";
}

TEST(PhysMemPool, ResetDropsTheCopyOnWriteFrame) {
  const auto image = three_frame_image();
  mem::PhysicalMemory pm;
  pm.set_base(image);
  pm.write8(16 * kFrame, 0x11);  // before the snapshot: part of the baseline
  pm.snapshot();
  pm.write8(16 * kFrame, 0x22);
  pm.write8(17 * kFrame + 5, 0xee);  // copy-on-write after the snapshot
  EXPECT_EQ(pm.dirty_frames(), 2u);
  EXPECT_EQ(pm.allocated_frames(), 2u);

  pm.reset();
  EXPECT_EQ(pm.read8(16 * kFrame), 0x11u);
  EXPECT_EQ(pm.read8(17 * kFrame + 5), image->frame(17)[5]);
  EXPECT_EQ(pm.allocated_frames(), 1u);
  EXPECT_EQ(pm.dirty_frames(), 0u);
}

TEST(PhysMemPool, ImageBackedDigestMatchesPlainMemory) {
  const auto image = three_frame_image();
  mem::PhysicalMemory backed;
  backed.set_base(image);
  EXPECT_EQ(backed.digest(), image->digest());

  // The same bytes written into a memory with no base layer.
  mem::PhysicalMemory plain;
  for (std::uint64_t off = 0; off < 3 * kFrame; off += 8) {
    std::uint64_t word = 0;
    for (int i = 7; i >= 0; --i)
      word = (word << 8) | image->frame(16)[off + i];
    plain.write64(16 * kFrame + off, word);
  }
  EXPECT_EQ(backed.digest(), plain.digest());

  // A shadowed image frame and a frame outside the image.
  for (mem::PhysicalMemory* pm : {&backed, &plain}) {
    pm->write64(17 * kFrame + 8, 0x0123456789abcdefull);
    pm->write64(40 * kFrame, 0xfeedull);
  }
  EXPECT_EQ(backed.digest(), plain.digest());
  EXPECT_NE(backed.digest(), image->digest());
}

TEST(PhysMemPool, SetBaseAfterSnapshotThrows) {
  mem::PhysicalMemory pm;
  pm.snapshot();
  EXPECT_THROW(pm.set_base(three_frame_image()), std::logic_error);
}

TEST(PhysMemPool, MachinesShareOneKernelImage) {
  os::Machine a({.model = uarch::CpuModel::KabyLakeI7_7700});
  os::Machine b({.model = uarch::CpuModel::SkylakeI7_6700, .seed = 0x77ull});
  mem::PhysicalMemory& pa = a.memsys().phys();
  mem::PhysicalMemory& pb = b.memsys().phys();
  ASSERT_NE(pa.base(), nullptr);
  EXPECT_EQ(pa.base(), pb.base());
  EXPECT_EQ(pa.allocated_frames(), 0u);

  const std::uint64_t image_pa = a.kernel().image_phys_base();
  pa.write64(image_pa, 0x1111ull);
  EXPECT_EQ(pb.read64(image_pa), 0x6b65726e656c0000ull);

  const std::vector<std::uint8_t> secret = {'s', 'e', 'c', 'r', 'e', 't'};
  const std::uint64_t secret_pa =
      image_pa + (a.plant_kernel_secret(secret) - a.kernel().kernel_base());
  EXPECT_EQ(pa.read_bytes(secret_pa, secret.size()), secret);
  const std::uint8_t* image_bytes = pb.base()->frame(secret_pa / kFrame);
  EXPECT_EQ(pb.read_bytes(secret_pa, secret.size()),
            std::vector<std::uint8_t>(image_bytes,
                                      image_bytes + secret.size()));
}

// ---------------------------------------------------------------------------
// Attack-level byte identity: every registry attack × every CPU preset ×
// noise {off, desktop}. The reset machine is deliberately constructed with a
// DIFFERENT seed and dirtied with a full attack run first — reset(seed) must
// erase all of that.
// ---------------------------------------------------------------------------

void expect_identical(const core::AttackResult& a, const core::AttackResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.byte_errors, b.byte_errors) << what;
  EXPECT_EQ(a.probes, b.probes) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;  // bit-identical, not approximate
  EXPECT_EQ(a.confidence, b.confidence) << what;
  EXPECT_EQ(a.gave_up, b.gave_up) << what;
  EXPECT_EQ(a.tote.buckets(), b.tote.buckets()) << what;
  EXPECT_EQ(a.found_slot, b.found_slot) << what;
  EXPECT_EQ(a.found_base, b.found_base) << what;
  EXPECT_EQ(a.true_base, b.true_base) << what;
  EXPECT_EQ(a.slot_scores, b.slot_scores) << what;
}

struct AttackRun {
  core::AttackResult result;
  uarch::PmuSnapshot pmu;  // delta over the attack phase
};

AttackRun run_attack(os::Machine& m, const core::AttackInfo& info) {
  core::AttackOptions opt;
  opt.batches = 1;  // smallest possible cell; identity, not accuracy
  const std::vector<std::uint8_t> payload = {0xa5, 0x3c};
  const uarch::PmuSnapshot before = m.core().pmu().snapshot();
  AttackRun out;
  out.result = core::make_attack(info.name, m, opt)
                   ->run(info.channel ? std::span<const std::uint8_t>(payload)
                                      : std::span<const std::uint8_t>());
  out.pmu = uarch::pmu_delta(before, m.core().pmu().snapshot());
  return out;
}

using Cell = std::tuple<uarch::CpuModel, bool>;  // (preset, noise on)

class ResetIdentityTest : public ::testing::TestWithParam<Cell> {};

TEST_P(ResetIdentityTest, ResetMachineMatchesFreshForEveryAttack) {
  const auto [model, noisy] = GetParam();
  constexpr std::uint64_t kSeed = 0x777ull;

  os::MachineOptions opts;
  opts.model = model;
  opts.noise = noisy ? noise::NoiseProfile::desktop()
                     : noise::NoiseProfile::off();

  // One pooled machine per cell, the way the runner holds it: constructed
  // once (with a different seed, to prove reset overrides it), snapshotted,
  // then dirtied + reset before each comparison.
  os::MachineOptions dirty_opts = opts;
  dirty_opts.seed = 0x31337ull;
  os::Machine reused(dirty_opts);
  reused.snapshot();

  for (const core::AttackInfo& info : core::attack_registry()) {
    const std::string what =
        info.name + " on model " + std::to_string(static_cast<int>(model)) +
        (noisy ? " (desktop noise)" : " (no noise)");

    opts.seed = kSeed;
    os::Machine fresh(opts);
    const AttackRun a = run_attack(fresh, info);

    reused.reset(0x31337ull);        // dirty pass under the other seed
    (void)run_attack(reused, info);
    reused.reset(kSeed);
    const AttackRun b = run_attack(reused, info);

    expect_identical(a.result, b.result, what);
    EXPECT_EQ(a.pmu, b.pmu) << "PMU deltas diverged: " << what;
  }
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const auto [model, noisy] = info.param;
  static const char* kModels[] = {"SkylakeI7_6700", "KabyLakeI7_7700",
                                  "CometLakeI9_10980XE", "RaptorLakeI9_13900K",
                                  "Zen3Ryzen5_5600G"};
  return std::string(kModels[static_cast<int>(model)]) +
         (noisy ? "_DesktopNoise" : "_NoNoise");
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, ResetIdentityTest,
    ::testing::Combine(::testing::Values(uarch::CpuModel::SkylakeI7_6700,
                                         uarch::CpuModel::KabyLakeI7_7700,
                                         uarch::CpuModel::CometLakeI9_10980XE,
                                         uarch::CpuModel::RaptorLakeI9_13900K,
                                         uarch::CpuModel::Zen3Ryzen5_5600G),
                       ::testing::Bool()),
    cell_name);

// ---------------------------------------------------------------------------
// Fast-forward exactness (invariant 10, docs/ARCHITECTURE.md): the
// fast-forward core may skip provably inert cycle spans, but every
// observable — AttackResult, PMU delta, traces, metrics — must be
// byte-identical to the cycle-by-cycle structural pipeline. Same coverage
// grid as the reset suite: every registry attack × every CPU preset ×
// noise {off, desktop}.
// ---------------------------------------------------------------------------

class FastForwardIdentityTest : public ::testing::TestWithParam<Cell> {};

TEST_P(FastForwardIdentityTest, FastForwardMatchesStructuralForEveryAttack) {
  const auto [model, noisy] = GetParam();

  os::MachineOptions opts;
  opts.model = model;
  opts.noise = noisy ? noise::NoiseProfile::desktop()
                     : noise::NoiseProfile::off();
  opts.seed = 0x777ull;

  for (const core::AttackInfo& info : core::attack_registry()) {
    const std::string what =
        info.name + " on model " + std::to_string(static_cast<int>(model)) +
        (noisy ? " (desktop noise)" : " (no noise)") + " [fast-forward]";

    os::Machine structural(opts);
    structural.core().set_fast_forward(false);
    const AttackRun a = run_attack(structural, info);

    os::Machine fast(opts);
    ASSERT_TRUE(fast.core().fast_forward());  // the shipping default is on
    const AttackRun b = run_attack(fast, info);

    expect_identical(a.result, b.result, what);
    EXPECT_EQ(a.pmu, b.pmu) << "PMU deltas diverged: " << what;
    // The structural side must also match the recorded simulation, so a
    // change that moves both modes alike cannot pass unnoticed.
    EXPECT_TRUE(test_support::matches_pin(
        test_support::pin_key(info.name),
        test_support::PinText().attack(a.result).pmu("pmu", a.pmu).str()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, FastForwardIdentityTest,
    ::testing::Combine(::testing::Values(uarch::CpuModel::SkylakeI7_6700,
                                         uarch::CpuModel::KabyLakeI7_7700,
                                         uarch::CpuModel::CometLakeI9_10980XE,
                                         uarch::CpuModel::RaptorLakeI9_13900K,
                                         uarch::CpuModel::Zen3Ryzen5_5600G),
                       ::testing::Bool()),
    cell_name);

// ---------------------------------------------------------------------------
// Runner-level byte identity: the two trial paths (fresh construction vs
// pooled reset) must yield identical results, traces and metrics.
// ---------------------------------------------------------------------------

runner::RunSpec fig1_spec() {
  runner::RunSpec spec;
  spec.model = uarch::CpuModel::KabyLakeI7_7700;
  spec.attack = "cc";
  spec.trials = 2;
  spec.base_seed = 0xf161ull;
  spec.batches = 2;
  spec.payload_bytes = 2;
  spec.collect_trace = true;
  return spec;
}

void expect_identical(const runner::TrialResult& a,
                      const runner::TrialResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.byte_errors, b.byte_errors);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.tote.buckets(), b.tote.buckets());
  EXPECT_EQ(a.pmu, b.pmu);
}

TEST(RunnerResetPath, TrialPathsAreBitIdentical) {
  runner::RunSpec reused = fig1_spec();
  reused.reuse_machine = true;
  runner::RunSpec fresh = fig1_spec();
  fresh.reuse_machine = false;

  const runner::RunResult a = runner::run(reused, /*jobs=*/1);
  const runner::RunResult b = runner::run(fresh, /*jobs=*/1);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i)
    expect_identical(a.trials[i], b.trials[i]);
}

TEST(RunnerResetPath, TraceAndMetricsBytesAreIdentical) {
  // The Fig. 1 pipeline view and the metrics export are the two observable
  // byte streams the obs layer produces; both must be indifferent to which
  // trial path ran.
  runner::RunSpec reused = fig1_spec();
  runner::RunSpec fresh = fig1_spec();
  fresh.reuse_machine = false;

  const runner::RunResult a = runner::run(reused, /*jobs=*/1);
  const runner::RunResult b = runner::run(fresh, /*jobs=*/1);
  ASSERT_GT(a.events.size(), 0u);
  EXPECT_EQ(obs::to_chrome_trace(a.events), obs::to_chrome_trace(b.events));
  EXPECT_EQ(runner::to_metrics(a).to_json(), runner::to_metrics(b).to_json());
}

TEST(RunnerFastForward, TrialsTracesAndMetricsMatchStructuralRun) {
  // The RunSpec knob end to end: a fast-forward run and a structural run of
  // the Fig. 1 spec must agree on every trial field and on both observable
  // byte streams (Chrome trace, metrics export).
  runner::RunSpec on = fig1_spec();  // fast_forward defaults to true
  runner::RunSpec off = fig1_spec();
  off.fast_forward = false;

  const runner::RunResult a = runner::run(on, /*jobs=*/1);
  const runner::RunResult b = runner::run(off, /*jobs=*/1);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i)
    expect_identical(a.trials[i], b.trials[i]);
  ASSERT_GT(a.events.size(), 0u);
  EXPECT_EQ(obs::to_chrome_trace(a.events), obs::to_chrome_trace(b.events));
  EXPECT_EQ(runner::to_metrics(a).to_json(), runner::to_metrics(b).to_json());
}

TEST(RunnerResetPath, RunTrialOverloadsAgree) {
  const runner::RunSpec spec = fig1_spec();
  const std::uint64_t seed = runner::trial_seed(spec.base_seed, 0);
  const runner::TrialResult fresh = runner::run_trial(spec, seed);

  os::Machine m(runner::machine_options(spec, 0xABCDull));
  m.snapshot();
  (void)runner::run_trial(spec, 0xABCDull, m);  // dirty the machine first
  const runner::TrialResult reused = runner::run_trial(spec, seed, m);
  expect_identical(fresh, reused);
}

// ---------------------------------------------------------------------------
// Seed schedule: the per-trial seeds are part of the reproducibility
// contract (documented runs name base seeds). Lock the derivation so a
// refactor that silently reseeds differently — fresh or reused — fails here.
// ---------------------------------------------------------------------------

TEST(SeedSchedule, TrialSeedValuesAreLocked) {
  EXPECT_EQ(runner::trial_seed(0xfeedull, 0), 0x3365e73ff6c1e17bull);
  EXPECT_EQ(runner::trial_seed(0xfeedull, 1), 0x9e730d94c590c83full);
  EXPECT_EQ(runner::trial_seed(0xfeedull, 2), 0x91773e19077212ecull);
  EXPECT_EQ(runner::trial_seed(0xfeedull, 3), 0x189d6c4441f889cbull);
  EXPECT_EQ(runner::trial_seed(1, 0), 0x910a2dec89025cc1ull);
}

TEST(SeedSchedule, MachineOptionsPassSeedThroughVerbatim) {
  runner::RunSpec spec = fig1_spec();
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t s = runner::trial_seed(spec.base_seed, i);
    EXPECT_EQ(runner::machine_options(spec, s).seed, s);
  }
}

TEST(SeedSchedule, SameSeedsFreshOrReused) {
  runner::RunSpec reused = fig1_spec();
  runner::RunSpec fresh = fig1_spec();
  fresh.reuse_machine = false;
  const runner::RunResult a = runner::run(reused, 1);
  const runner::RunResult b = runner::run(fresh, 1);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].seed, runner::trial_seed(reused.base_seed, i));
    EXPECT_EQ(a.trials[i].seed, b.trials[i].seed);
  }
}

// ---------------------------------------------------------------------------
// Machine-level state probes: targeted checks for state that the attack
// matrix might not exercise on every preset.
// ---------------------------------------------------------------------------

TEST(MachineReset, ThrowsBeforeSnapshot) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  EXPECT_FALSE(m.snapshotted());
  EXPECT_THROW(m.reset(1), std::logic_error);
}

TEST(MachineReset, RestoresMemoryCyclesAndKaslrSlot) {
  os::MachineOptions opts;
  opts.model = uarch::CpuModel::CometLakeI9_10980XE;
  opts.seed = 0x51a7ull;
  os::Machine fresh(opts);
  const int fresh_slot = fresh.kernel().slot();
  const std::uint64_t fresh_word = fresh.peek64(os::Machine::kDataBase);

  os::MachineOptions other = opts;
  other.seed = 0x909ull;
  os::Machine m(other);
  m.snapshot();
  m.poke64(os::Machine::kDataBase, 0x1234ull);
  m.advance_time(5000);
  m.evict_tlbs();
  m.flush_caches();

  m.reset(0x51a7ull);
  EXPECT_EQ(m.kernel().slot(), fresh_slot);
  EXPECT_EQ(m.peek64(os::Machine::kDataBase), fresh_word);
  EXPECT_EQ(m.core().cycle(), fresh.core().cycle());
  EXPECT_EQ(m.core().pmu().snapshot(), fresh.core().pmu().snapshot());
}

TEST(MachineReset, SeedZeroRederivesThePresetSeed) {
  // MachineOptions::seed == 0 means "use the CPU preset's seed"; reset(0)
  // must mean the same thing, not "keep whatever seed was last set".
  os::Machine fresh({.model = uarch::CpuModel::SkylakeI7_6700});
  os::Machine m({.model = uarch::CpuModel::SkylakeI7_6700, .seed = 0xbadull});
  m.snapshot();
  m.reset(0);
  EXPECT_EQ(m.config().seed, fresh.config().seed);
}

}  // namespace
}  // namespace whisper

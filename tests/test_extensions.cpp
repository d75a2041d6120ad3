// Tests for the extension modules: TET-Spectre-V1, the branchless (CMOV)
// mitigation, the PMU attack detector, and the repetition-coded SMT
// channel. Plus unit tests for the new ISA instructions they rely on.
#include <gtest/gtest.h>

#include "baseline/flush_reload.h"
#include "core/attacks/meltdown.h"
#include "core/attacks/smt_channel.h"
#include "core/attacks/spectre_rsb.h"
#include "core/attacks/spectre_v1.h"
#include "core/detector.h"
#include "core/gadgets.h"
#include "isa/builder.h"
#include "os/machine.h"

namespace whisper {
namespace {

using isa::Cond;
using isa::ProgramBuilder;
using isa::Reg;

// --- new ISA instructions ----------------------------------------------------

class NewIsaTest : public ::testing::Test {
 protected:
  NewIsaTest() : m_({.model = uarch::CpuModel::KabyLakeI7_7700}) {}
  std::uint64_t reg(const uarch::RunResult& r, Reg rr) {
    return r.t0().regs[static_cast<std::size_t>(rr)];
  }
  os::Machine m_;
};

TEST_F(NewIsaTest, ImulNegNot) {
  ProgramBuilder b;
  b.mov(Reg::RAX, 6)
      .mov(Reg::RBX, 7)
      .imul(Reg::RAX, Reg::RBX)  // 42
      .mov(Reg::RCX, 5)
      .neg(Reg::RCX)             // -5
      .mov(Reg::RDX, 0)
      .not_(Reg::RDX)            // ~0
      .halt();
  const auto r = m_.run_user(b.build());
  EXPECT_EQ(reg(r, Reg::RAX), 42u);
  EXPECT_EQ(reg(r, Reg::RCX), static_cast<std::uint64_t>(-5));
  EXPECT_EQ(reg(r, Reg::RDX), ~0ull);
}

TEST_F(NewIsaTest, CmovSelectsOnCondition) {
  ProgramBuilder b;
  b.mov(Reg::RAX, 1)
      .cmp(Reg::RAX, 1)            // ZF=1
      .mov(Reg::RBX, 10)
      .mov(Reg::RCX, 20)
      .cmov(Cond::Z, Reg::RBX, Reg::RCX)   // taken: RBX <- 20
      .mov(Reg::RDX, 30)
      .mov(Reg::RSI, 40)
      .cmov(Cond::NZ, Reg::RDX, Reg::RSI)  // not taken: RDX stays 30
      .halt();
  const auto r = m_.run_user(b.build());
  EXPECT_EQ(reg(r, Reg::RBX), 20u);
  EXPECT_EQ(reg(r, Reg::RDX), 30u);
}

TEST_F(NewIsaTest, CmovNeverMispredicts) {
  const auto before =
      m_.core().pmu().value(uarch::PmuEvent::BR_MISP_EXEC_ALL_BRANCHES);
  ProgramBuilder b;
  b.mov(Reg::RAX, 1).mov(Reg::RBX, 0);
  for (int i = 0; i < 32; ++i) {
    b.cmp(Reg::RAX, i % 2);  // alternating condition
    b.cmov(Cond::Z, Reg::RBX, Reg::RAX);
  }
  b.halt();
  (void)m_.run_user(b.build());
  EXPECT_EQ(m_.core().pmu().value(uarch::PmuEvent::BR_MISP_EXEC_ALL_BRANCHES),
            before);
}

TEST_F(NewIsaTest, RdtscpOrdersAfterOlderWork) {
  // rdtscp must not execute before an older slow load completes.
  m_.memsys().clflush(os::Machine::kDataBase);
  ProgramBuilder b;
  b.mov(Reg::RCX, static_cast<std::int64_t>(os::Machine::kDataBase))
      .rdtsc(Reg::R8)
      .lfence()
      .load(Reg::RAX, Reg::RCX)  // DRAM
      .rdtscp(Reg::R9)           // waits for the load without an lfence
      .halt();
  const auto r = m_.run_user(b.build());
  ASSERT_EQ(r.t0().tsc.size(), 2u);
  EXPECT_GT(r.t0().tsc[1] - r.t0().tsc[0],
            static_cast<std::uint64_t>(m_.config().mem.dram_latency / 2));
}

// --- branchless mitigation ----------------------------------------------------

TEST(BranchlessMitigation, CmovSilencesTheTetChannel) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  m.poke8(os::Machine::kSharedBase, 'S');
  const auto g =
      core::make_tet_gadget_branchless(core::preferred_window(m.config()));

  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(Reg::RCX)] = core::kNullProbeAddress;
  regs[static_cast<std::size_t>(Reg::RDX)] = os::Machine::kSharedBase;

  double match = 0, mismatch = 0;
  for (int i = 0; i < 24; ++i) {
    regs[static_cast<std::size_t>(Reg::RBX)] = 'S';
    match += static_cast<double>(core::run_tote(m, g, regs));
    regs[static_cast<std::size_t>(Reg::RBX)] = 'T';
    mismatch += static_cast<double>(core::run_tote(m, g, regs));
  }
  // With CMOV there is no misprediction, hence no ToTE separation beyond
  // jitter.
  EXPECT_LT(std::abs(match - mismatch) / 24.0, 4.0)
      << "branchless gadget must not leak through ToTE";
}

// --- TET-Spectre-V1 -----------------------------------------------------------

TEST(TetSpectreV1Attack, LeaksOutOfBoundsSecret) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  core::TetSpectreV1 atk(m);
  const std::vector<std::uint8_t> secret = {'V', '1', '!'};
  const std::uint64_t secret_addr = core::TetSpectreV1::kArrayBase + 0x80;
  m.poke_bytes(secret_addr, secret);
  EXPECT_EQ(atk.leak(secret_addr, secret.size()), secret);
}

TEST(TetSpectreV1Attack, WorksOnMeltdownFixedSilicon) {
  // V1 is a same-address-space attack: the Comet Lake fixes don't help.
  os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE});
  core::TetSpectreV1 atk(m);
  const std::vector<std::uint8_t> secret = {0xc3};
  const std::uint64_t secret_addr = core::TetSpectreV1::kArrayBase + 0x40;
  m.poke_bytes(secret_addr, secret);
  EXPECT_EQ(atk.leak(secret_addr, 1), secret);
}

TEST(TetSpectreV1Attack, LeaksAcrossPageBoundary) {
  // The speculative access is not limited to the array's page.
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  core::TetSpectreV1 atk(m);
  const std::uint64_t secret_addr =
      core::TetSpectreV1::kArrayBase + 0x1040;  // next page
  m.poke8(secret_addr, 0x5c);
  EXPECT_EQ(atk.leak_byte(secret_addr), 0x5c);
}

// --- PMU detector --------------------------------------------------------------

TEST(PmuDetectorTest, FlagsFlushReloadButNotTet) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  const auto secret = std::vector<std::uint8_t>{'x', 'y'};
  const std::uint64_t kaddr = m.plant_kernel_secret(secret);
  core::PmuDetector detector;

  // Window 1: classic Meltdown-F+R.
  {
    const auto before = m.core().pmu().snapshot();
    baseline::MeltdownFlushReload atk(m);
    (void)atk.leak(kaddr, secret.size());
    const auto delta = uarch::pmu_delta(before, m.core().pmu().snapshot());
    const auto rep = detector.analyze(delta);
    EXPECT_TRUE(rep.cache_attack_suspected)
        << "dram/l1=" << rep.dram_per_l1_hit;
  }
  // Window 2: TET-MD on the same machine.
  {
    const auto before = m.core().pmu().snapshot();
    core::TetMeltdown atk(m, {{.batches = 3}});
    (void)atk.leak(kaddr, secret.size());
    const auto delta = uarch::pmu_delta(before, m.core().pmu().snapshot());
    const auto rep = detector.analyze(delta);
    EXPECT_FALSE(rep.cache_attack_suspected)
        << "dram/l1=" << rep.dram_per_l1_hit;
    // ...though a clear-rate monitor would still notice the fault storm:
    EXPECT_TRUE(rep.clear_storm_suspected);
  }
  // Window 3: benign workload — neither detector fires.
  {
    const auto before = m.core().pmu().snapshot();
    isa::ProgramBuilder b;
    b.mov(Reg::RAX, 0).mov(Reg::RBX, 1);
    b.label("l").add(Reg::RAX, Reg::RBX).add(Reg::RBX, 1).cmp(Reg::RBX, 500)
        .jcc(Cond::NZ, "l").halt();
    (void)m.run_user(b.build());
    const auto delta = uarch::pmu_delta(before, m.core().pmu().snapshot());
    const auto rep = detector.analyze(delta);
    EXPECT_FALSE(rep.cache_attack_suspected);
    EXPECT_FALSE(rep.clear_storm_suspected);
  }
}

TEST(PmuDetectorTest, TetRsbEvadesBothDetectors) {
  // TET-RSB raises no fault and touches no probe array: fully stealthy
  // against both modelled monitors.
  os::Machine m({.model = uarch::CpuModel::RaptorLakeI9_13900K});
  const std::vector<std::uint8_t> secret = {'q'};
  m.poke_bytes(os::Machine::kDataBase + 0x1000, secret);

  const auto before = m.core().pmu().snapshot();
  core::TetSpectreRsb atk(m);
  EXPECT_EQ(atk.leak(os::Machine::kDataBase + 0x1000, 1), secret);
  const auto delta = uarch::pmu_delta(before, m.core().pmu().snapshot());
  const auto rep = core::PmuDetector().analyze(delta);
  EXPECT_FALSE(rep.cache_attack_suspected);
  EXPECT_FALSE(rep.clear_storm_suspected);
}

// --- repetition-coded SMT channel ----------------------------------------------

TEST(SmtRepetitionTest, MajorityVoteRecoversAccuracy) {
  std::vector<std::uint8_t> payload;
  stats::Xoshiro256 rng(0x5e9);
  for (int i = 0; i < 48; ++i)
    payload.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
  auto run = [&](int repetition) {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    core::SmtCovertChannel ch(m, {.spy_iters = 12,
                                  .calibration_bits = 16,
                                  .start_skew_max = 60,
                                  .repetition = repetition});
    return ch.transmit(payload);
  };
  const auto noisy = run(1);
  const auto coded = run(9);
  EXPECT_GT(noisy.bit_error_rate, 0.05) << "skewed channel should be noisy";
  EXPECT_LT(coded.bit_error_rate, noisy.bit_error_rate * 0.6)
      << "repetition coding should recover accuracy";
  EXPECT_LT(coded.bytes_per_second, noisy.bytes_per_second);
}

}  // namespace
}  // namespace whisper

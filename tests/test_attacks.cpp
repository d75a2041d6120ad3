// End-to-end attack tests: the Table 2 ✓/✗ pattern, the §4.5 KASLR ladder
// (plain / KPTI / FLARE / Docker), and the baselines they are compared to.
#include <gtest/gtest.h>

#include <string>

#include "baseline/avx_kaslr.h"
#include "baseline/flush_reload.h"
#include "baseline/prefetch_kaslr.h"
#include "core/attacks/kaslr.h"
#include "core/attacks/meltdown.h"
#include "core/attacks/registry.h"
#include "core/attacks/smt_channel.h"
#include "core/attacks/spectre_rsb.h"
#include "core/attacks/zombieload.h"
#include "core/covert_channel.h"
#include "support/sim_pin.h"

namespace whisper {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(TetMeltdownAttack, LeaksKernelSecretOnVulnerableCpu) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  const auto secret = bytes_of("WHISPER");
  const std::uint64_t kaddr = m.plant_kernel_secret(secret);

  core::TetMeltdown atk(m);
  const auto leaked = atk.leak(kaddr, secret.size());
  EXPECT_EQ(leaked, secret);
}

TEST(TetMeltdownAttack, FailsOnFixedCpu) {
  os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE});
  const auto secret = bytes_of("WHISPER");
  const std::uint64_t kaddr = m.plant_kernel_secret(secret);

  core::TetMeltdown atk(m, {{.batches = 3}});
  const auto leaked = atk.leak(kaddr, secret.size());
  EXPECT_NE(leaked, secret);  // fixed silicon forwards nothing
}

TEST(TetMeltdownAttack, KptiMitigates) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700,
                 .kernel = {.kpti = true}});
  const auto secret = bytes_of("KPTI");
  const std::uint64_t kaddr = m.plant_kernel_secret(secret);

  core::TetMeltdown atk(m, {{.batches = 3}});
  const auto leaked = atk.leak(kaddr, secret.size());
  EXPECT_NE(leaked, secret);  // secret is simply unmapped now
}

TEST(TetZombieloadAttack, LeaksVictimStreamOnVulnerableCpu) {
  os::Machine m({.model = uarch::CpuModel::SkylakeI7_6700});
  const auto stream = bytes_of("MDS!");
  core::TetZombieload atk(m);
  EXPECT_EQ(atk.leak(stream), stream);
}

TEST(TetZombieloadAttack, FailsOnFixedCpu) {
  os::Machine m({.model = uarch::CpuModel::RaptorLakeI9_13900K});
  const auto stream = bytes_of("MDS!");
  core::TetZombieload atk(m, {{.batches = 3}});
  EXPECT_NE(atk.leak(stream), stream);
}

TEST(TetSpectreRsbAttack, LeaksSandboxedSecret) {
  os::Machine m({.model = uarch::CpuModel::RaptorLakeI9_13900K});
  const auto secret = bytes_of("RSB-SECRET");
  m.poke_bytes(os::Machine::kDataBase + 0x1000, secret);

  core::TetSpectreRsb atk(m);
  EXPECT_EQ(atk.leak(os::Machine::kDataBase + 0x1000, secret.size()), secret);
}

TEST(TetCovertChannelTest, TransmitsWithLowErrorRate) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  std::vector<std::uint8_t> payload;
  stats::Xoshiro256 rng(42);
  for (int i = 0; i < 64; ++i)
    payload.push_back(static_cast<std::uint8_t>(rng.next_below(256)));

  core::TetCovertChannel cc(m);
  const auto report = cc.transmit(payload);
  EXPECT_LT(report.byte_error_rate, 0.05) << report.to_string();
  EXPECT_GT(report.bytes_per_second, 0.0);
}

TEST(SmtChannelTest, BitsAreSeparable) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  core::SmtCovertChannel ch(m);
  std::uint64_t ones = 0, zeros = 0;
  for (int i = 0; i < 8; ++i) {
    ones += ch.measure_bit(true);
    zeros += ch.measure_bit(false);
  }
  EXPECT_GT(ones, zeros + 8 * 50);
}

TEST(SmtChannelTest, TransmitsBytes) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  core::SmtCovertChannel ch(m);
  const auto payload = bytes_of("smt-channel");
  const auto report = ch.transmit(payload);
  EXPECT_LT(report.byte_error_rate, 0.30) << report.to_string();
}

// --- KASLR ladder (§4.5) ----------------------------------------------------

TEST(TetKaslrAttack, BreaksPlainKaslr) {
  os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE});
  core::TetKaslr atk(m);
  const auto r = atk.run();
  EXPECT_TRUE(r.success) << "found slot " << r.found_slot << " true base 0x"
                         << std::hex << r.true_base;
}

TEST(TetKaslrAttack, BreaksKaslrUnderKpti) {
  os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE,
                 .kernel = {.kpti = true}});
  core::TetKaslr atk(m);
  const auto r = atk.run();
  EXPECT_TRUE(r.success);
}

TEST(TetKaslrAttack, BreaksKaslrUnderKptiPlusFlare) {
  os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE,
                 .kernel = {.kpti = true, .flare = true}});
  core::TetKaslr atk(m);
  const auto r = atk.run();
  EXPECT_TRUE(r.success);
}

TEST(TetKaslrAttack, WorksInsideDocker) {
  os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE,
                 .kernel = {.kpti = true},
                 .docker = true});
  core::TetKaslr atk(m);
  EXPECT_TRUE(atk.run().success);
}

TEST(TetKaslrAttack, FailsOnZen3) {
  os::Machine m({.model = uarch::CpuModel::Zen3Ryzen5_5600G});
  core::TetKaslr atk(m);
  EXPECT_FALSE(atk.run().success);
}

TEST(TetKaslrAttack, FgkaslrLimitsExploitability) {
  os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE,
                 .kernel = {.fgkaslr = true}});
  core::TetKaslr atk(m);
  const auto r = atk.run();
  // The base still leaks...
  EXPECT_TRUE(r.success);
  // ...but function-granular shuffling breaks offset-based targeting (§6.2).
  EXPECT_NE(m.kernel().symbol_addr("commit_creds"),
            m.kernel().symbol_guess("commit_creds"));
}

// --- Baselines ---------------------------------------------------------------

TEST(BaselineFlushReload, ChannelAndMeltdownWork) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  baseline::FlushReloadChannel ch(m);
  const auto payload = bytes_of("cache");
  const auto report = ch.transmit(payload);
  EXPECT_LT(report.byte_error_rate, 0.05) << report.to_string();

  const auto secret = bytes_of("FR");
  const std::uint64_t kaddr = m.plant_kernel_secret(secret);
  baseline::MeltdownFlushReload md(m);
  EXPECT_EQ(md.leak(kaddr, secret.size()), secret);
}

TEST(BaselinePrefetchKaslr, WorksWithoutFlareFailsWithFlare) {
  {
    os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE,
                   .kernel = {.kpti = true}});
    baseline::PrefetchKaslr atk(m);
    EXPECT_TRUE(atk.run().success);
  }
  {
    os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE,
                   .kernel = {.kpti = true, .flare = true}});
    baseline::PrefetchKaslr atk(m);
    EXPECT_FALSE(atk.run().success)
        << "FLARE should defeat walk-timing probes";
  }
}

// Simulation pin of the KASLR slot scans and of adaptive escalation: the
// two baselines' exact results (sec45 and extensions E5 configurations) and
// one escalating run each of TET-KASLR and a channel attack under
// noisy-server interference (both double up to the 8x budget and give up).
testing::AssertionResult matches_attack_pin(const std::string& suffix,
                                            const core::AttackResult& r) {
  return test_support::matches_pin(test_support::pin_key(suffix),
                                   test_support::PinText().attack(r).str());
}

TEST(KaslrScanPin, PrefetchBaselineOnCometLake) {
  const struct {
    const char* name;
    os::KernelOptions kernel;
    std::uint64_t seed;
  } cases[] = {{"plain", {}, 11},
               {"kpti", {.kpti = true}, 22},
               {"kpti_flare", {.kpti = true, .flare = true}, 33}};
  for (const auto& c : cases) {
    os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE,
                   .kernel = c.kernel,
                   .seed = c.seed});
    baseline::PrefetchKaslr atk(m, {.rounds = 3});
    EXPECT_TRUE(matches_attack_pin(c.name, atk.run()));
  }
}

TEST(KaslrScanPin, AvxBaselineWithAndWithoutGating) {
  for (const bool gating : {true, false}) {
    uarch::CpuConfig cfg =
        uarch::make_config(uarch::CpuModel::CometLakeI9_10980XE);
    cfg.avx_power_gating = gating;
    os::Machine m({.model = cfg.model, .seed = 0xE5, .config = cfg});
    baseline::AvxKaslr atk(m);
    EXPECT_TRUE(
        matches_attack_pin(gating ? "gating_on" : "gating_off", atk.run()));
  }
}

TEST(KaslrScanPin, AdaptiveEscalationUnderNoisyServer) {
  core::AttackOptions opt;
  opt.adaptive = true;
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700,
                   .seed = 0x19,
                   .noise = noise::NoiseProfile::noisy_server()});
    EXPECT_TRUE(
        matches_attack_pin("kaslr", core::make_attack("kaslr", m, opt)->run({})));
  }
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700,
                   .seed = 0x19,
                   .noise = noise::NoiseProfile::noisy_server()});
    const auto payload = bytes_of("Wh");
    EXPECT_TRUE(
        matches_attack_pin("md", core::make_attack("md", m, opt)->run(payload)));
  }
}

}  // namespace
}  // namespace whisper

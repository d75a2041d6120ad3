// TET-Spectre-V5-RSB (paper §4.3.3, Listing 1): the gadget overwrites its
// own return address and flushes the stack slot; the RSB-predicted return
// path executes the secret-dependent Jcc transiently. A triggered
// misprediction resolves the pending return early, shortening ToTE
// (arg-min decode, following the paper's prose — see DESIGN.md on the
// Listing-1 argmax discrepancy). No fault is ever raised, which is why this
// variant reaches KB/s throughput.
#pragma once

#include <cstdint>
#include <span>

#include "core/attacks/attack.h"
#include "core/gadgets.h"
#include "os/machine.h"

namespace whisper::core {

class TetSpectreRsb final : public ChannelAttack {
 public:
  /// Where run(payload) plants the secret: gadget-reachable attacker data,
  /// standing in for the sandboxed-but-mapped secret of the Spectre model.
  static constexpr std::uint64_t kSecretBase =
      os::Machine::kDataBase + 0x1000;

  struct Options : AttackOptions {};

  /// leak(vaddr, len) reads bytes the gadget can architecturally reach but
  /// the attacker's sandbox cannot (the Spectre threat model): `vaddr` is in
  /// the gadget's address space.
  explicit TetSpectreRsb(os::Machine& m, Options opt = Options{});

 protected:
  void execute(std::span<const std::uint8_t> payload, AttackResult& r) override;
  void sweep(std::uint64_t vaddr, int batch, AttackResult& r) override;

 private:
  GadgetProgram gadget_;
};

}  // namespace whisper::core

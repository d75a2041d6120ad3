// TET-Meltdown (paper §4.3.1): leak kernel memory across the privilege
// boundary, transmitting each byte over the Whisper channel — the secret-
// equality Jcc inside the transient window lengthens ToTE when it triggers,
// and the batch-argmax of ToTE recovers the byte.
#pragma once

#include <cstdint>
#include <span>

#include "core/attacks/attack.h"
#include "core/gadgets.h"
#include "os/machine.h"

namespace whisper::core {

class TetMeltdown final : public ChannelAttack {
 public:
  struct Options : AttackOptions {};

  /// run(payload) plants the payload as a kernel secret via
  /// Machine::plant_kernel_secret; leak(kvaddr, len) reads kernel addresses
  /// the caller already holds.
  explicit TetMeltdown(os::Machine& m, Options opt = Options{});

 protected:
  void execute(std::span<const std::uint8_t> payload, AttackResult& r) override;
  void sweep(std::uint64_t kvaddr, int batch, AttackResult& r) override;

 private:
  GadgetProgram gadget_;
};

}  // namespace whisper::core

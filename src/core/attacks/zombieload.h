// TET-Zombieload (paper §4.3.2): sample stale line-fill-buffer data from a
// victim on the same physical core, transmitting it over the Whisper channel.
// Contrary to TET-MD, a triggered Jcc *shortens* the window (the assist
// squashes early), so decoding uses arg-min.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/attacks/attack.h"
#include "core/gadgets.h"
#include "os/machine.h"

namespace whisper::core {

class TetZombieload final : public ChannelAttack {
 public:
  struct Options : AttackOptions {};

  explicit TetZombieload(os::Machine& m, Options opt = Options{});

  /// Sample the byte stream a co-resident victim repeatedly touches (the
  /// harness injects each victim byte into the LFB before every probe —
  /// standing in for the victim loop of the real attack). A thin wrapper
  /// over run(); leak_byte(b) samples one victim byte `b`.
  [[nodiscard]] std::vector<std::uint8_t> leak(
      std::span<const std::uint8_t> victim_stream);

 protected:
  void execute(std::span<const std::uint8_t> payload, AttackResult& r) override;
  void sweep(std::uint64_t victim_byte, int batch, AttackResult& r) override;

 private:
  GadgetProgram gadget_;
};

}  // namespace whisper::core

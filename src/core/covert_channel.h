// TET-CC (paper §4.1): the covert channel built directly on the Whisper
// primitive. The sender places a byte in shared memory; the receiver sweeps
// test values through the Fig. 1a gadget — the value whose probes produce
// the longest ToTE is the transmitted byte. No cache line is ever used to
// carry the secret (transient-only, stateless — Table 1).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/attacks/attack.h"
#include "core/gadgets.h"
#include "os/machine.h"
#include "stats/error_rate.h"

namespace whisper::core {

class TetCovertChannel final : public ChannelAttack {
 public:
  struct Options : AttackOptions {
    /// Cross-process synchronisation cost charged per transmitted byte
    /// (cycles); defaults to the CPU config's channel_sync_cycles.
    std::optional<int> sync_cycles;
  };

  explicit TetCovertChannel(os::Machine& m, Options opt = Options{});

  /// Transmit `bytes` sender→receiver and report throughput + error rate
  /// exactly as §4.1 does for 1k random bytes. Thin wrapper over run().
  [[nodiscard]] stats::ChannelReport transmit(
      std::span<const std::uint8_t> bytes);

 protected:
  void execute(std::span<const std::uint8_t> payload, AttackResult& r) override;
  void sweep(std::uint64_t shared_vaddr, int batch, AttackResult& r) override;

 private:
  std::optional<int> sync_cycles_;
  GadgetProgram gadget_;
};

}  // namespace whisper::core

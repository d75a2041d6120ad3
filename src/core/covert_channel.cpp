#include "core/covert_channel.h"

namespace whisper::core {

TetCovertChannel::TetCovertChannel(os::Machine& m, Options opt)
    : ChannelAttack(m, "cc", opt, Polarity::Max, /*default_batches=*/3),
      sync_cycles_(opt.sync_cycles),
      gadget_(make_tet_gadget(
          {.window = opt.window.value_or(preferred_window(m.config())),
           .source = SecretSource::SharedMemory})) {}

void TetCovertChannel::sweep(std::uint64_t shared_vaddr, int /*batch*/,
                             AttackResult& r) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = kNullProbeAddress;
  regs[static_cast<std::size_t>(isa::Reg::RDX)] = shared_vaddr;
  for (int tv = 0; tv <= 255; ++tv) {
    regs[static_cast<std::size_t>(isa::Reg::RBX)] =
        static_cast<std::uint64_t>(tv);
    analyzer_.add(tv, run_tote(m_, gadget_, regs));
    ++r.probes;
  }
}

void TetCovertChannel::execute(std::span<const std::uint8_t> payload,
                               AttackResult& r) {
  const int sync = sync_cycles_.value_or(m_.config().channel_sync_cycles);

  r.bytes.reserve(payload.size());
  for (const std::uint8_t b : payload) {
    // Sender side: publish the byte and pay the handshake.
    m_.poke8(os::Machine::kSharedBase, b);
    m_.advance_time(static_cast<std::uint64_t>(sync));
    // Receiver side: sweep and decode.
    r.bytes.push_back(decode_byte(os::Machine::kSharedBase, r));
  }
}

stats::ChannelReport TetCovertChannel::transmit(
    std::span<const std::uint8_t> bytes) {
  const AttackResult r = run(bytes);
  return stats::evaluate_channel(bytes, r.bytes, r.cycles,
                                 m_.config().ghz);
}

}  // namespace whisper::core

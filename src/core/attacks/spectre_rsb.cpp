#include "core/attacks/spectre_rsb.h"

namespace whisper::core {

TetSpectreRsb::TetSpectreRsb(os::Machine& m, Options opt)
    : ChannelAttack(m, "rsb", opt, Polarity::Min, /*default_batches=*/2),
      gadget_(make_rsb_gadget()) {}

void TetSpectreRsb::sweep(std::uint64_t vaddr, int /*batch*/,
                          AttackResult& r) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RDX)] = vaddr;
  for (int tv = 0; tv <= 255; ++tv) {
    regs[static_cast<std::size_t>(isa::Reg::RBX)] =
        static_cast<std::uint64_t>(tv);
    analyzer_.add(tv, run_tote(m_, gadget_, regs));
    ++r.probes;
  }
}

void TetSpectreRsb::execute(std::span<const std::uint8_t> payload,
                            AttackResult& r) {
  m_.poke_bytes(kSecretBase, payload);
  decode_bytes(kSecretBase, payload.size(), r);
}

}  // namespace whisper::core

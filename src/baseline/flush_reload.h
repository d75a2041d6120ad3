// Flush+Reload (Yarom & Falkner) — the canonical *stateful* cache channel
// the paper compares against (Table 1). Used both as a standalone covert
// channel and as the transmission stage of the classic Meltdown baseline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/gadgets.h"
#include "os/machine.h"
#include "stats/error_rate.h"

namespace whisper::baseline {

/// 256 cache lines at the probe-array base encode one byte.
inline constexpr std::uint64_t kProbeArrayBase = os::Machine::kDataBase;
inline constexpr std::uint64_t kReloadBufBase =
    os::Machine::kDataBase + 0x8000;

class FlushReloadChannel {
 public:
  explicit FlushReloadChannel(os::Machine& m);

  /// Transmit bytes sender→receiver through the cache.
  [[nodiscard]] stats::ChannelReport transmit(
      std::span<const std::uint8_t> bytes);

  /// Flush all 256 probe lines (the state-initialisation step).
  void flush_array();
  /// Sender: touch probe line `byte`.
  void send_byte(std::uint8_t byte);
  /// Receiver: reload-sweep all lines and return the argmin-latency index,
  /// or -1 if no line was measurably hot.
  [[nodiscard]] int receive_byte();

  /// Reload latencies of all 256 lines from the last sweep.
  [[nodiscard]] std::vector<std::uint64_t> last_latencies() const;

 private:
  os::Machine& m_;
  isa::Program reload_;
  isa::Program flush_;
  isa::Program touch_;
};

/// Classic Meltdown with Flush+Reload transmission — TET-MD's baseline.
class MeltdownFlushReload {
 public:
  struct Options {
    std::optional<core::WindowKind> window;
  };

  explicit MeltdownFlushReload(os::Machine& m) : MeltdownFlushReload(m, Options{}) {}
  MeltdownFlushReload(os::Machine& m, Options opt);

  [[nodiscard]] std::uint8_t leak_byte(std::uint64_t kvaddr);
  [[nodiscard]] std::vector<std::uint8_t> leak(std::uint64_t kvaddr,
                                               std::size_t len);

 private:
  os::Machine& m_;
  FlushReloadChannel channel_;
  core::GadgetProgram gadget_;
};

}  // namespace whisper::baseline

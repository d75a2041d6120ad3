// Reference interpreter: sequential, architectural-only execution of a
// Program. No pipeline, no timing, no speculation — just the ISA contract.
//
// Primary use: differential testing. Whatever the out-of-order core commits
// must equal what this interpreter computes (tests/test_differential.cpp
// feeds both engines generated programs). It is also handy for users
// debugging gadget logic without microarchitectural noise.
//
// Scope: the deterministic subset. RDTSC/RDTSCP return a step counter;
// faulting accesses terminate execution (reported, not suppressed); TSX
// regions commit unless a fault occurs inside.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "isa/isa.h"
#include "isa/program.h"

namespace whisper::isa {

/// Flat byte-addressable memory for reference execution.
class RefMemory {
 public:
  [[nodiscard]] std::uint8_t read8(std::uint64_t addr) const {
    auto it = bytes_.find(addr);
    return it == bytes_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t read64(std::uint64_t addr) const {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
      v = (v << 8) | read8(addr + static_cast<std::uint64_t>(i));
    return v;
  }
  void write8(std::uint64_t addr, std::uint8_t value) {
    bytes_[addr] = value;
  }
  void write64(std::uint64_t addr, std::uint64_t value) {
    for (int i = 0; i < 8; ++i)
      write8(addr + static_cast<std::uint64_t>(i),
             static_cast<std::uint8_t>(value >> (8 * i)));
  }
  /// Visit all written bytes (for state comparison).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [a, v] : bytes_) fn(a, v);
  }

 private:
  std::unordered_map<std::uint64_t, std::uint8_t> bytes_;
};

enum class InterpStatus : std::uint8_t {
  Halted,       // executed a Halt
  RanOffEnd,    // fell past the last instruction
  StepLimit,    // max_steps exceeded (non-terminating program?)
  Faulted,      // TSX-less memory fault (address recorded)
};

struct InterpreterResult {
  InterpStatus status = InterpStatus::Halted;
  std::array<std::uint64_t, kNumRegs> regs{};
  Flags flags;
  std::uint64_t steps = 0;        // instructions executed
  std::uint64_t fault_addr = 0;   // valid when status == Faulted
  int fault_pc = -1;
};

/// Execute `prog` sequentially against `mem`. Addresses are used as-is
/// (no translation); a fault can be injected by marking address ranges
/// invalid via `fault_below` (every access < fault_below faults — enough to
/// model the null-page gadget openers).
InterpreterResult interpret(const Program& prog,
                            const std::array<std::uint64_t, kNumRegs>& regs,
                            RefMemory& mem,
                            std::uint64_t max_steps = 100'000,
                            std::uint64_t fault_below = 0);

}  // namespace whisper::isa

// Shared test support: the seeded random-program generator behind the
// differential suites in tests/test_differential.cpp (core against the
// reference interpreter, rerun after reset, fast-forward against
// structural stepping). Programs are terminating by construction; memory
// traffic stays inside the mapped attacker data window and the stack.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "isa/builder.h"
#include "isa/program.h"
#include "os/machine.h"
#include "stats/rng.h"

namespace whisper::test_support {

// Registers the generator plays with (avoids RSP, which the Machine
// initialises, and R8/R9, reserved for rdtsc in other tests).
inline constexpr isa::Reg kPool[] = {
    isa::Reg::RAX, isa::Reg::RBX, isa::Reg::RCX, isa::Reg::RDX,
    isa::Reg::RSI, isa::Reg::RDI, isa::Reg::R10, isa::Reg::R11,
    isa::Reg::R12, isa::Reg::R13};

class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  /// Generate a terminating program: straight-line blocks with forward
  /// branches and jumps, bounded counted backward loops (R15 is the loop
  /// counter), TSX begin/end pairs, fences, prefetches, AVX ops,
  /// cache-line flushes, memory traffic confined to the data window, and
  /// calls into out-of-line subroutine chains placed after the final halt.
  /// Control-flow units are emitted atomically, so forward branches always
  /// land on unit boundaries — never inside a loop body or a TSX region —
  /// and every program halts.
  ///
  /// Every opcode runs here except Rdtsc/Rdtscp: the reference interpreter
  /// returns its step count for them, not a cycle count, so the engines
  /// differ by design.
  isa::Program generate(int length) {
    isa::ProgramBuilder b;
    int label_id = 0;
    std::vector<std::string> pending;  // forward labels not yet placed
    chains_.clear();

    // Pin the memory base so loads/stores stay in the mapped data region.
    b.mov(isa::Reg::R14, static_cast<std::int64_t>(os::Machine::kDataBase));

    // One call chain per program nests deeper than the RSB, so returns
    // both overflow it (oldest entries overwritten) and underflow it.
    const int deep_at = static_cast<int>(rng_.next_below(
        static_cast<std::uint64_t>(length)));
    for (int i = 0; i < length; ++i) {
      // Place a pending forward label with some probability.
      if (!pending.empty() && rng_.next_bool(0.35)) {
        b.label(pending.back());
        pending.pop_back();
      }
      if (i == deep_at) emit_call(b, label_id, kDeepCallChain);
      emit_random(b, pending, label_id);
    }
    // Close all remaining forward labels, then stop.
    while (!pending.empty()) {
      b.label(pending.back());
      pending.pop_back();
    }
    b.halt();
    // Subroutine k of a chain runs a flag-safe body, calls k+1 (the last
    // one calls nothing) and returns.
    for (const auto& [name, depth] : chains_) {
      for (int k = 0; k < depth; ++k) {
        b.label(name + "_" + std::to_string(k));
        emit_alu_body(b);
        if (k + 1 < depth) b.call(name + "_" + std::to_string(k + 1));
        b.ret();
      }
    }
    return b.build();
  }

  /// Random pool registers; RSP holds the stack top the Machine gives its
  /// thread, so the interpreter's Call/Ret traffic lands where the core's
  /// does.
  std::array<std::uint64_t, isa::kNumRegs> random_regs() {
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    for (isa::Reg r : kPool) regs[static_cast<std::size_t>(r)] = rng_.next();
    regs[static_cast<std::size_t>(isa::Reg::RSP)] = os::Machine::kStackTop;
    return regs;
  }

 private:
  isa::Reg pick() { return kPool[rng_.next_below(std::size(kPool))]; }
  std::int64_t small_imm() {
    return static_cast<std::int64_t>(rng_.next_in(-128, 127));
  }
  /// Offset within the mapped data region (R14-relative, 8-byte aligned).
  std::int64_t mem_disp() {
    return static_cast<std::int64_t>(rng_.next_below(0x1000)) * 8;
  }

  /// A short run of flag-safe ALU ops (loop/TSX bodies — nothing that can
  /// fault or touch R14/R15).
  void emit_alu_body(isa::ProgramBuilder& b) {
    const int n = static_cast<int>(rng_.next_below(3)) + 1;
    for (int i = 0; i < n; ++i) {
      switch (rng_.next_below(4)) {
        case 0: b.add(pick(), small_imm()); break;
        case 1: b.xor_(pick(), pick()); break;
        case 2: b.not_(pick()); break;
        default:
          b.shl(pick(), static_cast<std::int64_t>(rng_.next_below(4)));
          break;
      }
    }
  }

  /// Call the head of a new chain of `depth` nested subroutines.
  void emit_call(isa::ProgramBuilder& b, int& label_id, int depth) {
    std::string name = "S" + std::to_string(label_id++);
    b.call(name + "_0");
    chains_.emplace_back(std::move(name), depth);
  }

  void emit_random(isa::ProgramBuilder& b, std::vector<std::string>& pending,
                   int& label_id) {
    using isa::Cond;
    using isa::Reg;
    switch (rng_.next_below(29)) {
      case 0: b.mov(pick(), small_imm()); break;
      case 1: b.mov(pick(), pick()); break;
      case 2: b.add(pick(), small_imm()); break;
      case 3: b.add(pick(), pick()); break;
      case 4: b.sub(pick(), pick()); break;
      case 5: b.xor_(pick(), pick()); break;
      case 6: b.and_(pick(), small_imm()); break;
      case 7: b.shl(pick(), static_cast<std::int64_t>(rng_.next_below(8)));
              break;
      case 8: b.imul(pick(), pick()); break;
      case 9: b.neg(pick()); break;
      case 10: b.not_(pick()); break;
      case 11: b.cmp(pick(), pick()); break;
      case 12: {  // cmov after a fresh cmp so flags are deterministic
        b.cmp(pick(), small_imm());
        b.cmov(static_cast<Cond>(rng_.next_below(8)), pick(), pick());
        break;
      }
      case 13: b.store(Reg::R14, pick(), mem_disp()); break;
      case 14: b.load(pick(), Reg::R14, mem_disp()); break;
      case 15: b.store_byte(Reg::R14, pick(), mem_disp()); break;
      case 16: b.load_byte(pick(), Reg::R14, mem_disp()); break;
      case 17: {  // forward conditional branch
        b.cmp(pick(), small_imm());
        std::string l = "L" + std::to_string(label_id++);
        b.jcc(static_cast<Cond>(rng_.next_below(8)), l);
        pending.push_back(std::move(l));
        break;
      }
      case 18: {  // counted backward loop: R15 counts 0..trip, always taken
                  // trip-1 times then falls through — bounded by
                  // construction, exercising BPU backward prediction and
                  // loop-carried flags in both engines
        const std::int64_t trip =
            static_cast<std::int64_t>(rng_.next_below(7)) + 1;
        const std::string top = "B" + std::to_string(label_id++);
        b.mov(Reg::R15, 0);
        b.label(top);
        emit_alu_body(b);
        b.add(Reg::R15, 1);
        b.cmp(Reg::R15, trip);
        b.jcc(Cond::NZ, top);
        break;
      }
      case 19: {  // TSX region: begin/end pair around a flag-safe body; no
                  // fault can occur here, so the abort path never runs and
                  // both engines must agree on the committed body
        const std::string abort_to = "T" + std::to_string(label_id++);
        b.tsx_begin(abort_to);
        emit_alu_body(b);
        b.tsx_end();
        b.label(abort_to);
        break;
      }
      case 20: b.clflush(Reg::R14, mem_disp()); break;
      case 21: b.fdiv(pick(), pick()); break;  // occupies the divider port
      case 22: {  // back-to-back divides: serialized on the one divider,
                  // exercising the busy-until latch in both engines
        b.fdiv(pick(), pick());
        b.fdiv(pick(), pick());
        break;
      }
      case 23: {  // forward jump over whatever lands before its label
        std::string l = "J" + std::to_string(label_id++);
        b.jmp(l);
        pending.push_back(std::move(l));
        break;
      }
      case 24: b.prefetch(Reg::R14, mem_disp()); break;
      case 25: b.mfence(); break;
      case 26: b.lfence(); break;
      case 27: b.avx(rng_.next_bool(0.5) ? pick() : Reg::None); break;
      case 28:  // a shallow chain: the RSB predicts every return
        emit_call(b, label_id, static_cast<int>(rng_.next_below(3)) + 1);
        break;
    }
  }

  // Deeper than the 16-entry return stack buffer every CPU preset models
  // (uarch::CpuConfig::rsb_entries).
  static constexpr int kDeepCallChain = 20;

  stats::Xoshiro256 rng_;
  std::vector<std::pair<std::string, int>> chains_;  // name, depth
};

}  // namespace whisper::test_support

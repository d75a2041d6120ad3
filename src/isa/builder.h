// Fluent assembler for whisper::isa programs.
//
// Gadgets from the paper translate directly, e.g. the Fig. 1a TET block:
//
//   ProgramBuilder b;
//   b.tsx_begin("abort")
//    .load(Reg::RAX, Reg::RCX)              // *(char*)(0x0)  -- faulting load
//    .cmp(Reg::RBX, 'S')
//    .jcc(Cond::Z, "hit")                   // if (test_value == 'S')
//    .jmp("join")
//    .label("hit").nop()                    //     asm("nop")
//    .label("join").tsx_end()
//    .label("abort").halt();
//   Program p = b.build();
//
// Forward references to labels are recorded as fixups and resolved in
// build(); unresolved references throw.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa.h"
#include "isa/program.h"

namespace whisper::isa {

class ProgramBuilder {
 public:
  ProgramBuilder() = default;

  ProgramBuilder& label(const std::string& name);

  ProgramBuilder& nop(int count = 1);
  ProgramBuilder& mov(Reg dst, std::int64_t imm);
  /// dst <- instruction index of `target` (the `movabs $2f, %rax` of the
  /// paper's Listing 1: a code address materialised as data).
  ProgramBuilder& mov_label(Reg dst, const std::string& target);
  ProgramBuilder& mov(Reg dst, Reg src);
  ProgramBuilder& load(Reg dst, Reg base, std::int64_t disp = 0);
  ProgramBuilder& load_byte(Reg dst, Reg base, std::int64_t disp = 0);
  ProgramBuilder& store(Reg base, Reg src, std::int64_t disp = 0);
  ProgramBuilder& store_byte(Reg base, Reg src, std::int64_t disp = 0);
  ProgramBuilder& add(Reg dst, std::int64_t imm);
  ProgramBuilder& add(Reg dst, Reg src);
  ProgramBuilder& sub(Reg dst, std::int64_t imm);
  ProgramBuilder& sub(Reg dst, Reg src);
  ProgramBuilder& and_(Reg dst, std::int64_t imm);
  ProgramBuilder& xor_(Reg dst, Reg src);
  ProgramBuilder& shl(Reg dst, std::int64_t imm);
  ProgramBuilder& imul(Reg dst, Reg src);
  ProgramBuilder& fdiv(Reg dst, Reg src);
  ProgramBuilder& neg(Reg dst);
  ProgramBuilder& not_(Reg dst);
  ProgramBuilder& cmov(Cond c, Reg dst, Reg src);
  ProgramBuilder& cmp(Reg dst, std::int64_t imm);
  ProgramBuilder& cmp(Reg dst, Reg src);
  ProgramBuilder& jcc(Cond c, const std::string& target);
  ProgramBuilder& jmp(const std::string& target);
  ProgramBuilder& call(const std::string& target);
  ProgramBuilder& ret();
  ProgramBuilder& clflush(Reg base, std::int64_t disp = 0);
  ProgramBuilder& prefetch(Reg base, std::int64_t disp = 0);
  ProgramBuilder& mfence();
  ProgramBuilder& lfence();
  ProgramBuilder& avx(Reg dep = Reg::None);
  ProgramBuilder& rdtsc(Reg dst);
  ProgramBuilder& rdtscp(Reg dst);
  ProgramBuilder& tsx_begin(const std::string& abort_target);
  ProgramBuilder& tsx_end();
  ProgramBuilder& halt();

  /// Number of instructions emitted so far (== index of the next one).
  [[nodiscard]] int here() const noexcept {
    return static_cast<int>(code_.size());
  }

  /// Resolve all fixups and produce a validated Program.
  /// Throws std::invalid_argument on unresolved labels.
  [[nodiscard]] Program build();

 private:
  ProgramBuilder& emit(Instruction in);
  ProgramBuilder& emit_branch(Instruction in, const std::string& target);

  std::vector<Instruction> code_;
  std::map<std::string, int> labels_;
  std::vector<std::pair<std::size_t, std::string>> fixups_;      // -> target
  std::vector<std::pair<std::size_t, std::string>> imm_fixups_;  // -> imm
};

}  // namespace whisper::isa

// Unit tests for whisper::isa — instruction metadata, the program builder's
// label resolution, validation, and disassembly.
#include <gtest/gtest.h>

#include <set>

#include "isa/builder.h"
#include "isa/isa.h"
#include "isa/program.h"

namespace whisper::isa {
namespace {

TEST(Isa, CondEvaluation) {
  Flags f;
  f.zf = true;
  EXPECT_TRUE(eval_cond(Cond::Z, f));
  EXPECT_FALSE(eval_cond(Cond::NZ, f));
  f.zf = false;
  f.cf = true;
  EXPECT_TRUE(eval_cond(Cond::C, f));
  EXPECT_FALSE(eval_cond(Cond::NC, f));
  f.cf = false;
  f.sf = true;
  EXPECT_TRUE(eval_cond(Cond::S, f));
  f.sf = false;
  f.of = true;
  EXPECT_TRUE(eval_cond(Cond::O, f));
  EXPECT_FALSE(eval_cond(Cond::NO, f));
}

TEST(Isa, InstructionClassPredicates) {
  Instruction jcc{.op = Opcode::Jcc};
  EXPECT_TRUE(jcc.is_branch());
  EXPECT_TRUE(jcc.reads_flags());
  EXPECT_FALSE(jcc.writes_flags());

  Instruction ret{.op = Opcode::Ret};
  EXPECT_TRUE(ret.is_branch());
  EXPECT_TRUE(ret.is_load());   // pops the return address

  Instruction call{.op = Opcode::Call};
  EXPECT_TRUE(call.is_store());  // pushes the return address

  Instruction cmp{.op = Opcode::CmpRI};
  EXPECT_TRUE(cmp.writes_flags());
  EXPECT_FALSE(cmp.is_load());
  EXPECT_FALSE(cmp.is_store());

  Instruction lf{.op = Opcode::Lfence};
  EXPECT_TRUE(lf.is_fence());
}

TEST(Isa, UopCounts) {
  EXPECT_EQ(Instruction{.op = Opcode::Nop}.uops(), 1);
  EXPECT_EQ(Instruction{.op = Opcode::Call}.uops(), 2);
  EXPECT_EQ(Instruction{.op = Opcode::Ret}.uops(), 2);
  EXPECT_EQ(Instruction{.op = Opcode::Mfence}.uops(), 3);
  EXPECT_EQ(Instruction{.op = Opcode::Rdtsc}.uops(), 2);
}

TEST(Builder, ResolvesForwardAndBackwardLabels) {
  ProgramBuilder b;
  b.label("top").nop().jcc(Cond::Z, "bottom").jmp("top").label("bottom").halt();
  const Program p = b.build();
  EXPECT_EQ(p.at(1).target, p.label("bottom"));
  EXPECT_EQ(p.at(2).target, 0);
}

TEST(Builder, ThrowsOnUnresolvedLabel) {
  ProgramBuilder b;
  b.jmp("nowhere");
  EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(Builder, ThrowsOnDuplicateLabel) {
  ProgramBuilder b;
  b.label("x").nop();
  EXPECT_THROW(b.label("x"), std::invalid_argument);
}

TEST(Builder, MovLabelMaterialisesInstructionIndex) {
  ProgramBuilder b;
  b.mov_label(Reg::R11, "landing").nop().label("landing").halt();
  const Program p = b.build();
  EXPECT_EQ(p.at(0).op, Opcode::MovRI);
  EXPECT_EQ(p.at(0).imm, p.label("landing"));
}

TEST(Builder, HereTracksNextIndex) {
  ProgramBuilder b;
  EXPECT_EQ(b.here(), 0);
  b.nop(3);
  EXPECT_EQ(b.here(), 3);
}

TEST(Builder, NopCountEmitsExactly) {
  ProgramBuilder b;
  b.nop(5).halt();
  EXPECT_EQ(b.build().size(), 6u);
}

TEST(ProgramTest, ValidateRejectsOutOfRangeTargets) {
  std::vector<Instruction> code = {
      {.op = Opcode::Jmp, .target = 5},
      {.op = Opcode::Halt},
  };
  EXPECT_THROW(Program(code, {}), std::invalid_argument);
  code[0].target = -1;
  EXPECT_THROW(Program(code, {}), std::invalid_argument);
  code[0].target = 1;
  EXPECT_NO_THROW(Program(code, {}));
}

TEST(ProgramTest, LabelLookup) {
  ProgramBuilder b;
  b.nop().label("mid").nop().halt();
  const Program p = b.build();
  EXPECT_TRUE(p.has_label("mid"));
  EXPECT_EQ(p.label("mid"), 1);
  EXPECT_FALSE(p.has_label("nope"));
  EXPECT_THROW((void)p.label("nope"), std::out_of_range);
}

TEST(ProgramTest, DisassemblyContainsLabelsAndMnemonics) {
  ProgramBuilder b;
  b.mov(Reg::RAX, 0x42)
      .label("loop")
      .load(Reg::RBX, Reg::RAX, 8)
      .cmp(Reg::RBX, 0)
      .jcc(Cond::NZ, "loop")
      .clflush(Reg::RAX)
      .mfence()
      .rdtsc(Reg::R8)
      .halt();
  const std::string d = b.build().disassemble();
  EXPECT_NE(d.find("loop:"), std::string::npos);
  EXPECT_NE(d.find("mov rax, 0x42"), std::string::npos);
  EXPECT_NE(d.find("jnz"), std::string::npos);
  EXPECT_NE(d.find("clflush"), std::string::npos);
  EXPECT_NE(d.find("mfence"), std::string::npos);
  EXPECT_NE(d.find("rdtsc"), std::string::npos);
  EXPECT_NE(d.find("hlt"), std::string::npos);
}

// One instance of every opcode with its exact trace name and disassembly:
// traces and listings print these bytes, so a change to an opcode's row
// shows here first.
struct DisassemblyPin {
  Instruction in;
  const char* trace;
  const char* text;
};

const DisassemblyPin kDisassemblyPins[] = {
    {{.op = Opcode::Nop}, "nop", "nop"},
    {{.op = Opcode::MovRI, .dst = Reg::RAX, .imm = 0x2a}, "mov",
     "mov rax, 0x2a"},
    {{.op = Opcode::MovRI, .dst = Reg::RBX, .imm = -1}, "mov",
     "mov rbx, 0xffffffffffffffff"},
    {{.op = Opcode::MovRR, .dst = Reg::RAX, .src = Reg::RBX}, "mov",
     "mov rax, rbx"},
    {{.op = Opcode::Load, .dst = Reg::RAX, .base = Reg::RCX, .disp = 8},
     "mov(load)", "mov rax, qword [rcx+0x8]"},
    {{.op = Opcode::LoadByte, .dst = Reg::RDX, .base = Reg::RSI,
      .disp = -16},
     "movzx(load8)", "movzx rdx, byte [rsi-0x10]"},
    {{.op = Opcode::Store, .src = Reg::R8, .base = Reg::RDI}, "mov(store)",
     "mov qword [rdi], r8"},
    {{.op = Opcode::StoreByte, .src = Reg::R9, .base = Reg::R14,
      .disp = 0x100},
     "mov(store8)", "mov byte [r14+0x100], r9"},
    {{.op = Opcode::AddRI, .dst = Reg::RAX, .imm = -5}, "add", "add rax, -5"},
    {{.op = Opcode::AddRR, .dst = Reg::RAX, .src = Reg::RBX}, "add",
     "add rax, rbx"},
    {{.op = Opcode::SubRI, .dst = Reg::R10, .imm = 3}, "sub", "sub r10, 3"},
    {{.op = Opcode::SubRR, .dst = Reg::R11, .src = Reg::R12}, "sub",
     "sub r11, r12"},
    {{.op = Opcode::AndRI, .dst = Reg::RCX, .imm = 255}, "and",
     "and rcx, 255"},
    {{.op = Opcode::XorRR, .dst = Reg::RCX, .src = Reg::RCX}, "xor",
     "xor rcx, rcx"},
    {{.op = Opcode::ShlRI, .dst = Reg::RDX, .imm = 12}, "shl", "shl rdx, 12"},
    {{.op = Opcode::ImulRR, .dst = Reg::RAX, .src = Reg::RBX}, "imul",
     "imul rax, rbx"},
    {{.op = Opcode::FdivRR, .dst = Reg::R13, .src = Reg::R15}, "fdiv",
     "fdiv r13, r15"},
    {{.op = Opcode::Neg, .dst = Reg::RSI}, "neg", "neg rsi"},
    {{.op = Opcode::Not, .dst = Reg::RDI}, "not", "not rdi"},
    {{.op = Opcode::Cmov, .dst = Reg::RAX, .src = Reg::RBX, .cond = Cond::NZ},
     "cmov", "cmovnz rax, rbx"},
    {{.op = Opcode::CmpRI, .dst = Reg::RBX, .imm = 83}, "cmp", "cmp rbx, 83"},
    {{.op = Opcode::CmpRR, .dst = Reg::RAX, .src = Reg::RSP}, "cmp",
     "cmp rax, rsp"},
    {{.op = Opcode::Jcc, .cond = Cond::C, .target = 7}, "j", "jc 7"},
    {{.op = Opcode::Jmp, .target = 3}, "jmp", "jmp 3"},
    {{.op = Opcode::Call, .target = 12}, "call", "call 12"},
    {{.op = Opcode::Ret}, "ret", "ret"},
    {{.op = Opcode::Clflush, .base = Reg::RAX, .disp = 0x40}, "clflush",
     "clflush [rax+0x40]"},
    {{.op = Opcode::Prefetch, .base = Reg::RBP}, "prefetcht0",
     "prefetcht0 [rbp]"},
    {{.op = Opcode::Mfence}, "mfence", "mfence"},
    {{.op = Opcode::Lfence}, "lfence", "lfence"},
    {{.op = Opcode::AvxOp, .src = Reg::RAX}, "vaddps",
     "vaddps ymm0, ymm0, ymm0"},
    {{.op = Opcode::Rdtsc, .dst = Reg::R8}, "rdtsc", "rdtsc -> r8"},
    {{.op = Opcode::Rdtscp, .dst = Reg::R9}, "rdtscp", "rdtscp -> r9"},
    {{.op = Opcode::TsxBegin, .target = 9}, "xbegin", "xbegin 9"},
    {{.op = Opcode::TsxEnd}, "xend", "xend"},
    {{.op = Opcode::Halt}, "hlt", "hlt"},
};

TEST(ProgramTest, DisassemblyOfEveryOpcodeIsPinned) {
  for (const DisassemblyPin& pin : kDisassemblyPins) {
    EXPECT_EQ(to_string(pin.in.op), pin.trace);
    EXPECT_EQ(pin.in.to_string(), pin.text);
  }
}

TEST(ProgramTest, DisassemblyPinsCoverEveryOpcode) {
  std::set<Opcode> pinned;
  for (const DisassemblyPin& pin : kDisassemblyPins) pinned.insert(pin.in.op);
  EXPECT_EQ(pinned.size(), kNumOpcodes);
}

TEST(ProgramTest, ToStringCoversEveryOpcode) {
  // Every opcode must print something other than "?".
  for (int op = 0; op <= static_cast<int>(Opcode::Halt); ++op) {
    Instruction in{.op = static_cast<Opcode>(op)};
    in.dst = Reg::RAX;
    in.src = Reg::RBX;
    in.base = Reg::RCX;
    in.target = 0;
    EXPECT_NE(in.to_string(), "?") << "opcode " << op;
    EXPECT_FALSE(in.to_string().empty());
  }
}

TEST(ProgramTest, RegisterNames) {
  EXPECT_EQ(to_string(Reg::RAX), "rax");
  EXPECT_EQ(to_string(Reg::RSP), "rsp");
  EXPECT_EQ(to_string(Reg::R15), "r15");
}

}  // namespace
}  // namespace whisper::isa

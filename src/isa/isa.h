// Core ISA definitions for the x86-flavoured instruction set executed by the
// whisper::uarch pipeline model.
//
// The ISA is deliberately compact: it contains exactly the instructions the
// paper's gadgets need (Fig. 1a, Listing 1, Listing 2) plus enough ALU /
// control-flow support to write realistic victims, covert channels and
// benchmark kernels. Code addresses are instruction indices; the process
// layer maps them onto virtual code addresses for i-cache/ITLB purposes.
//
// Every static fact about an opcode (trace name, disassembly form, registers
// read and written, flag effects, µop count, load/store/branch/fence class)
// is one row of `detail::kOpcodes` below, indexed by Opcode; the
// Instruction predicates read that row. Behaviour (what an opcode computes,
// how long it takes) lives in the reference interpreter and the core.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>

namespace whisper::isa {

/// General-purpose registers (64-bit).
enum class Reg : std::uint8_t {
  RAX, RBX, RCX, RDX, RSI, RDI, RBP, RSP,
  R8, R9, R10, R11, R12, R13, R14, R15,
  Count,
  None = 0xff,
};

inline constexpr std::size_t kNumRegs =
    static_cast<std::size_t>(Reg::Count);

[[nodiscard]] std::string to_string(Reg r);

/// Condition codes for Jcc. The paper verified JE/JZ, JNE/JNZ and JC
/// (section 1); the full set is provided since "all conditional jump
/// instructions of x86 chips could be exploited".
enum class Cond : std::uint8_t { Z, NZ, C, NC, S, NS, O, NO };

[[nodiscard]] std::string to_string(Cond c);

/// Architectural flags produced by ALU/compare instructions.
struct Flags {
  bool zf = false;
  bool cf = false;
  bool sf = false;
  bool of = false;

  friend bool operator==(const Flags&, const Flags&) = default;
};

/// Evaluate a condition code against a flags value.
[[nodiscard]] constexpr bool eval_cond(Cond c, const Flags& f) noexcept {
  switch (c) {
    case Cond::Z:  return f.zf;
    case Cond::NZ: return !f.zf;
    case Cond::C:  return f.cf;
    case Cond::NC: return !f.cf;
    case Cond::S:  return f.sf;
    case Cond::NS: return !f.sf;
    case Cond::O:  return f.of;
    case Cond::NO: return !f.of;
  }
  return false;
}

enum class Opcode : std::uint8_t {
  Nop,
  MovRI,     // dst <- imm
  MovRR,     // dst <- src
  Load,      // dst <- mem64[base + disp]
  LoadByte,  // dst <- zext mem8[base + disp]
  Store,     // mem64[base + disp] <- src
  StoreByte, // mem8[base + disp] <- src (low byte)
  AddRI, AddRR,
  SubRI, SubRR,
  AndRI, XorRR,
  ShlRI,
  ImulRR,    // dst <- dst * src (3-cycle latency)
  FdivRR,    // dst <- dst / src (0 divisor yields all-ones). Executes on the
             // single non-pipelined divider: a second divide cannot issue
             // until the first vacates the unit — the SpectreRewind
             // contention channel's substrate. Divisors of 0/1 early-exit
             // with a short latency (no quotient iterations), which is what
             // makes the occupancy data-dependent.
  Neg,       // dst <- -dst
  Not,       // dst <- ~dst (flags unchanged)
  Cmov,      // dst <- cond ? src : dst — the branchless data move that
             // defeats the TET channel (no Jcc, no resteer)
  CmpRI,     // flags <- dst - imm
  CmpRR,     // flags <- dst - src
  Jcc,       // conditional jump to `target` when cond holds
  Jmp,       // unconditional jump to `target`
  Call,      // push return index onto stack memory, jump to `target`
  Ret,       // pop return index from stack memory, jump to it
  Clflush,   // flush cache line containing [base + disp]
  Prefetch,  // software prefetch of [base + disp]; never faults
  Mfence,    // full fence: drains older loads+stores before younger issue
  Lfence,    // dispatch-serialising fence (as on Intel)
  AvxOp,     // 256-bit vector op: needs the AVX unit powered up — its
             // warm-up latency is the AVX-timing side channel's probe
  Rdtsc,     // dst <- current core cycle
  Rdtscp,    // dst <- core cycle, ordered after all older instructions
  TsxBegin,  // begin transactional region; `target` is the abort handler
  TsxEnd,    // commit transactional region
  Halt,      // terminate the hardware thread (the last opcode)
};

inline constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Opcode::Halt) + 1;

[[nodiscard]] std::string to_string(Opcode op);

/// The instruction field an opcode reads or writes as a register.
enum class Operand : std::uint8_t { None, Dst, Src, Base, Rsp };

/// Class and flag bits of an opcode.
enum OpBits : std::uint8_t {
  kLoad = 1 << 0,         // reads memory; takes a load port
  kStore = 1 << 1,        // writes memory; takes a store port
  kBranch = 1 << 2,       // redirects fetch; takes a branch port
  kFence = 1 << 3,        // orders younger instructions behind older ones
  kHasTarget = 1 << 4,    // `target` must be a valid instruction index
  kReadsFlags = 1 << 5,
  kWritesFlags = 1 << 6,
};

/// Every static fact about one opcode.
struct OpInfo {
  Opcode op;              // the row's own index
  const char* name;       // trace name, to_string(Opcode)
  const char* form;       // Instruction::to_string template: %d dst, %s src,
                          // %i imm, %x imm in hex, %m [base+disp], %c cond,
                          // %t target
  Operand read_a, read_b;  // registers read: first, second source
  Operand writes;         // register written
  std::uint8_t bits;      // OpBits
  std::int8_t uops;       // micro-ops charged to IDQ/issue bandwidth
};

namespace detail {
using enum Operand;
// clang-format off
inline constexpr OpInfo kOpcodes[] = {
    {Opcode::Nop,       "nop",          "nop",                     None, None, None, 0, 1},
    {Opcode::MovRI,     "mov",          "mov %d, 0x%x",            None, None, Dst,  0, 1},
    {Opcode::MovRR,     "mov",          "mov %d, %s",              Src,  None, Dst,  0, 1},
    {Opcode::Load,      "mov(load)",    "mov %d, qword %m",        Base, None, Dst,  kLoad, 1},
    {Opcode::LoadByte,  "movzx(load8)", "movzx %d, byte %m",       Base, None, Dst,  kLoad, 1},
    {Opcode::Store,     "mov(store)",   "mov qword %m, %s",        Base, Src,  None, kStore, 1},
    {Opcode::StoreByte, "mov(store8)",  "mov byte %m, %s",         Base, Src,  None, kStore, 1},
    {Opcode::AddRI,     "add",          "add %d, %i",              Dst,  None, Dst,  kWritesFlags, 1},
    {Opcode::AddRR,     "add",          "add %d, %s",              Dst,  Src,  Dst,  kWritesFlags, 1},
    {Opcode::SubRI,     "sub",          "sub %d, %i",              Dst,  None, Dst,  kWritesFlags, 1},
    {Opcode::SubRR,     "sub",          "sub %d, %s",              Dst,  Src,  Dst,  kWritesFlags, 1},
    {Opcode::AndRI,     "and",          "and %d, %i",              Dst,  None, Dst,  kWritesFlags, 1},
    {Opcode::XorRR,     "xor",          "xor %d, %s",              Dst,  Src,  Dst,  kWritesFlags, 1},
    {Opcode::ShlRI,     "shl",          "shl %d, %i",              Dst,  None, Dst,  kWritesFlags, 1},
    {Opcode::ImulRR,    "imul",         "imul %d, %s",             Dst,  Src,  Dst,  kWritesFlags, 1},
    {Opcode::FdivRR,    "fdiv",         "fdiv %d, %s",             Dst,  Src,  Dst,  kWritesFlags, 1},
    {Opcode::Neg,       "neg",          "neg %d",                  Dst,  None, Dst,  kWritesFlags, 1},
    {Opcode::Not,       "not",          "not %d",                  Dst,  None, Dst,  0, 1},
    {Opcode::Cmov,      "cmov",         "cmov%c %d, %s",           Dst,  Src,  Dst,  kReadsFlags, 1},
    {Opcode::CmpRI,     "cmp",          "cmp %d, %i",              Dst,  None, None, kWritesFlags, 1},
    {Opcode::CmpRR,     "cmp",          "cmp %d, %s",              Dst,  Src,  None, kWritesFlags, 1},
    {Opcode::Jcc,       "j",            "j%c %t",                  None, None, None, kBranch | kHasTarget | kReadsFlags, 1},
    {Opcode::Jmp,       "jmp",          "jmp %t",                  None, None, None, kBranch | kHasTarget, 1},
    // Call/Ret: a branch µop plus the stack access of the return index.
    {Opcode::Call,      "call",         "call %t",                 Rsp,  None, Rsp,  kBranch | kStore | kHasTarget, 2},
    {Opcode::Ret,       "ret",          "ret",                     Rsp,  None, Rsp,  kBranch | kLoad, 2},
    {Opcode::Clflush,   "clflush",      "clflush %m",              Base, None, None, 0, 2},
    {Opcode::Prefetch,  "prefetcht0",   "prefetcht0 %m",           Base, None, None, 0, 1},
    // Mfence: the fence µop plus drain bookkeeping, as measured on Intel.
    {Opcode::Mfence,    "mfence",       "mfence",                  None, None, None, kFence, 3},
    {Opcode::Lfence,    "lfence",       "lfence",                  None, None, None, kFence, 1},
    // AvxOp's src is an optional data dependency feeding the vector op.
    {Opcode::AvxOp,     "vaddps",       "vaddps ymm0, ymm0, ymm0", Src,  None, None, 0, 1},
    {Opcode::Rdtsc,     "rdtsc",        "rdtsc -> %d",             None, None, Dst,  0, 2},
    {Opcode::Rdtscp,    "rdtscp",       "rdtscp -> %d",            None, None, Dst,  0, 2},
    {Opcode::TsxBegin,  "xbegin",       "xbegin %t",               None, None, None, kHasTarget, 2},
    {Opcode::TsxEnd,    "xend",         "xend",                    None, None, None, 0, 2},
    {Opcode::Halt,      "hlt",          "hlt",                     None, None, None, 0, 1},
};
// clang-format on
}  // namespace detail

static_assert(std::size(detail::kOpcodes) == kNumOpcodes,
              "one OpInfo row per opcode");
static_assert(
    [] {
      for (std::size_t i = 0; i < kNumOpcodes; ++i)
        if (static_cast<std::size_t>(detail::kOpcodes[i].op) != i)
          return false;
      return true;
    }(),
    "each OpInfo row sits at its own opcode's index");

[[nodiscard]] constexpr const OpInfo& info(Opcode op) noexcept {
  return detail::kOpcodes[static_cast<std::size_t>(op)];
}

/// One decoded instruction.
struct Instruction {
  Opcode op = Opcode::Nop;
  Reg dst = Reg::None;
  Reg src = Reg::None;
  Reg base = Reg::None;    // base register for memory operands
  std::int64_t imm = 0;    // immediate operand
  std::int64_t disp = 0;   // memory displacement
  Cond cond = Cond::Z;
  std::int32_t target = -1;  // branch target: instruction index

  [[nodiscard]] constexpr bool is_branch() const noexcept {
    return info(op).bits & kBranch;
  }
  [[nodiscard]] constexpr bool is_load() const noexcept {
    return info(op).bits & kLoad;
  }
  [[nodiscard]] constexpr bool is_store() const noexcept {
    return info(op).bits & kStore;
  }
  [[nodiscard]] constexpr bool is_fence() const noexcept {
    return info(op).bits & kFence;
  }
  [[nodiscard]] constexpr bool has_target() const noexcept {
    return info(op).bits & kHasTarget;
  }
  [[nodiscard]] constexpr bool reads_flags() const noexcept {
    return info(op).bits & kReadsFlags;
  }
  [[nodiscard]] constexpr bool writes_flags() const noexcept {
    return info(op).bits & kWritesFlags;
  }
  [[nodiscard]] constexpr int uops() const noexcept { return info(op).uops; }

  /// The registers the opcode reads (first, second source) and writes;
  /// Reg::None where its row names no operand.
  [[nodiscard]] constexpr Reg read_a() const noexcept {
    return reg(info(op).read_a);
  }
  [[nodiscard]] constexpr Reg read_b() const noexcept {
    return reg(info(op).read_b);
  }
  [[nodiscard]] constexpr Reg written() const noexcept {
    return reg(info(op).writes);
  }

  [[nodiscard]] std::string to_string() const;

 private:
  [[nodiscard]] constexpr Reg reg(Operand o) const noexcept {
    switch (o) {
      case Operand::Dst:  return dst;
      case Operand::Src:  return src;
      case Operand::Base: return base;
      case Operand::Rsp:  return Reg::RSP;
      case Operand::None: break;
    }
    return Reg::None;
  }
};

}  // namespace whisper::isa

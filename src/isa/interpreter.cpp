#include "isa/interpreter.h"

namespace whisper::isa {

namespace {

Flags alu_flags(std::uint64_t result, bool carry, bool overflow) {
  Flags f;
  f.zf = result == 0;
  f.sf = (result >> 63) & 1;
  f.cf = carry;
  f.of = overflow;
  return f;
}

}  // namespace

InterpreterResult interpret(const Program& prog,
                            const std::array<std::uint64_t, kNumRegs>& regs,
                            RefMemory& mem, std::uint64_t max_steps,
                            std::uint64_t fault_below) {
  InterpreterResult r;
  r.regs = regs;

  auto R = [&](Reg reg) -> std::uint64_t& {
    return r.regs[static_cast<std::size_t>(reg)];
  };

  int pc = 0;
  while (r.steps < max_steps) {
    if (pc < 0 || static_cast<std::size_t>(pc) >= prog.size()) {
      r.status = InterpStatus::RanOffEnd;
      return r;
    }
    const Instruction& in = prog.at(static_cast<std::size_t>(pc));
    ++r.steps;
    int next = pc + 1;

    auto addr_of = [&] {
      return R(in.base) + static_cast<std::uint64_t>(in.disp);
    };
    auto check = [&](std::uint64_t a) {
      if (a < fault_below) {
        r.status = InterpStatus::Faulted;
        r.fault_addr = a;
        r.fault_pc = pc;
        return false;
      }
      return true;
    };

    switch (in.op) {
      case Opcode::Nop:
      case Opcode::AvxOp:
      case Opcode::Mfence:
      case Opcode::Lfence:
      case Opcode::Clflush:
      case Opcode::Prefetch:
      case Opcode::TsxBegin:
      case Opcode::TsxEnd:
        break;
      case Opcode::MovRI:
        R(in.dst) = static_cast<std::uint64_t>(in.imm);
        break;
      case Opcode::MovRR:
        R(in.dst) = R(in.src);
        break;
      case Opcode::Load: {
        const std::uint64_t a = addr_of();
        if (!check(a)) return r;
        R(in.dst) = mem.read64(a);
        break;
      }
      case Opcode::LoadByte: {
        const std::uint64_t a = addr_of();
        if (!check(a)) return r;
        R(in.dst) = mem.read8(a);
        break;
      }
      case Opcode::Store: {
        const std::uint64_t a = addr_of();
        if (!check(a)) return r;
        mem.write64(a, R(in.src));
        break;
      }
      case Opcode::StoreByte: {
        const std::uint64_t a = addr_of();
        if (!check(a)) return r;
        mem.write8(a, static_cast<std::uint8_t>(R(in.src)));
        break;
      }
      case Opcode::AddRI: {
        const std::uint64_t a = R(in.dst);
        const std::uint64_t b = static_cast<std::uint64_t>(in.imm);
        const std::uint64_t res = a + b;
        r.flags = alu_flags(res, res < a,
                            ((~(a ^ b) & (a ^ res)) >> 63) != 0);
        R(in.dst) = res;
        break;
      }
      case Opcode::AddRR: {
        const std::uint64_t a = R(in.dst);
        const std::uint64_t b = R(in.src);
        const std::uint64_t res = a + b;
        r.flags = alu_flags(res, res < a,
                            ((~(a ^ b) & (a ^ res)) >> 63) != 0);
        R(in.dst) = res;
        break;
      }
      case Opcode::SubRI:
      case Opcode::CmpRI: {
        const std::uint64_t a = R(in.dst);
        const std::uint64_t b = static_cast<std::uint64_t>(in.imm);
        const std::uint64_t res = a - b;
        r.flags = alu_flags(res, a < b, (((a ^ b) & (a ^ res)) >> 63) != 0);
        if (in.op == Opcode::SubRI) R(in.dst) = res;
        break;
      }
      case Opcode::SubRR:
      case Opcode::CmpRR: {
        const std::uint64_t a = R(in.dst);
        const std::uint64_t b = R(in.src);
        const std::uint64_t res = a - b;
        r.flags = alu_flags(res, a < b, (((a ^ b) & (a ^ res)) >> 63) != 0);
        if (in.op == Opcode::SubRR) R(in.dst) = res;
        break;
      }
      case Opcode::AndRI:
        R(in.dst) &= static_cast<std::uint64_t>(in.imm);
        r.flags = alu_flags(R(in.dst), false, false);
        break;
      case Opcode::XorRR:
        R(in.dst) ^= R(in.src);
        r.flags = alu_flags(R(in.dst), false, false);
        break;
      case Opcode::ShlRI:
        R(in.dst) <<= (in.imm & 63);
        r.flags = alu_flags(R(in.dst), false, false);
        break;
      case Opcode::ImulRR:
        R(in.dst) *= R(in.src);
        r.flags = alu_flags(R(in.dst), false, false);
        break;
      case Opcode::FdivRR: {
        const std::uint64_t d = R(in.src);
        R(in.dst) = d == 0 ? ~0ull : R(in.dst) / d;
        r.flags = alu_flags(R(in.dst), false, false);
        break;
      }
      case Opcode::Neg: {
        const std::uint64_t a = R(in.dst);
        R(in.dst) = static_cast<std::uint64_t>(-static_cast<std::int64_t>(a));
        r.flags = alu_flags(R(in.dst), a != 0, false);
        break;
      }
      case Opcode::Not:
        R(in.dst) = ~R(in.dst);
        break;
      case Opcode::Cmov:
        if (eval_cond(in.cond, r.flags)) R(in.dst) = R(in.src);
        break;
      case Opcode::Jcc:
        if (eval_cond(in.cond, r.flags)) next = in.target;
        break;
      case Opcode::Jmp:
        next = in.target;
        break;
      case Opcode::Call: {
        const std::uint64_t sp = R(Reg::RSP) - 8;
        if (!check(sp)) return r;
        mem.write64(sp, static_cast<std::uint64_t>(pc + 1));
        R(Reg::RSP) = sp;
        next = in.target;
        break;
      }
      case Opcode::Ret: {
        const std::uint64_t sp = R(Reg::RSP);
        if (!check(sp)) return r;
        next = static_cast<int>(mem.read64(sp));
        R(Reg::RSP) = sp + 8;
        break;
      }
      case Opcode::Rdtsc:
      case Opcode::Rdtscp:
        R(in.dst) = r.steps;  // deterministic stand-in for a timestamp
        break;
      case Opcode::Halt:
        r.status = InterpStatus::Halted;
        return r;
    }
    pc = next;
  }
  r.status = InterpStatus::StepLimit;
  return r;
}

}  // namespace whisper::isa

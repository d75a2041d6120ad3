#include "isa/isa.h"

#include <array>
#include <sstream>

namespace whisper::isa {

std::string to_string(Reg r) {
  static constexpr std::array<const char*, kNumRegs> kNames = {
      "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
      "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15"};
  const auto i = static_cast<std::size_t>(r);
  return i < kNames.size() ? kNames[i] : "r?";
}

std::string to_string(Cond c) {
  switch (c) {
    case Cond::Z:  return "z";
    case Cond::NZ: return "nz";
    case Cond::C:  return "c";
    case Cond::NC: return "nc";
    case Cond::S:  return "s";
    case Cond::NS: return "ns";
    case Cond::O:  return "o";
    case Cond::NO: return "no";
  }
  return "?";
}

std::string to_string(Opcode op) { return info(op).name; }

std::string Instruction::to_string() const {
  std::ostringstream s;
  for (const char* f = info(op).form; *f != '\0'; ++f) {
    if (*f != '%') {
      s << *f;
      continue;
    }
    switch (*++f) {
      case 'd': s << isa::to_string(dst); break;
      case 's': s << isa::to_string(src); break;
      case 'i': s << imm; break;
      case 'x': s << std::hex << imm << std::dec; break;
      case 'c': s << isa::to_string(cond); break;
      case 't': s << target; break;
      case 'm':
        s << '[' << isa::to_string(base);
        if (disp > 0) s << "+0x" << std::hex << disp << std::dec;
        if (disp < 0) s << "-0x" << std::hex << -disp << std::dec;
        s << ']';
        break;
    }
  }
  return s.str();
}

}  // namespace whisper::isa

#include "isa/builder.h"

#include <stdexcept>

namespace whisper::isa {

ProgramBuilder& ProgramBuilder::label(const std::string& name) {
  if (labels_.contains(name))
    throw std::invalid_argument("ProgramBuilder: duplicate label '" + name +
                                "'");
  labels_[name] = here();
  return *this;
}

ProgramBuilder& ProgramBuilder::emit(Instruction in) {
  code_.push_back(in);
  return *this;
}

ProgramBuilder& ProgramBuilder::emit_branch(Instruction in,
                                            const std::string& target) {
  fixups_.emplace_back(code_.size(), target);
  code_.push_back(in);
  return *this;
}

ProgramBuilder& ProgramBuilder::nop(int count) {
  for (int i = 0; i < count; ++i) emit({.op = Opcode::Nop});
  return *this;
}

ProgramBuilder& ProgramBuilder::mov(Reg dst, std::int64_t imm) {
  return emit({.op = Opcode::MovRI, .dst = dst, .imm = imm});
}
ProgramBuilder& ProgramBuilder::mov_label(Reg dst,
                                          const std::string& target) {
  imm_fixups_.emplace_back(code_.size(), target);
  code_.push_back({.op = Opcode::MovRI, .dst = dst});
  return *this;
}
ProgramBuilder& ProgramBuilder::mov(Reg dst, Reg src) {
  return emit({.op = Opcode::MovRR, .dst = dst, .src = src});
}
ProgramBuilder& ProgramBuilder::load(Reg dst, Reg base, std::int64_t disp) {
  return emit({.op = Opcode::Load, .dst = dst, .base = base, .disp = disp});
}
ProgramBuilder& ProgramBuilder::load_byte(Reg dst, Reg base,
                                          std::int64_t disp) {
  return emit(
      {.op = Opcode::LoadByte, .dst = dst, .base = base, .disp = disp});
}
ProgramBuilder& ProgramBuilder::store(Reg base, Reg src, std::int64_t disp) {
  return emit({.op = Opcode::Store, .src = src, .base = base, .disp = disp});
}
ProgramBuilder& ProgramBuilder::store_byte(Reg base, Reg src,
                                           std::int64_t disp) {
  return emit(
      {.op = Opcode::StoreByte, .src = src, .base = base, .disp = disp});
}
ProgramBuilder& ProgramBuilder::add(Reg dst, std::int64_t imm) {
  return emit({.op = Opcode::AddRI, .dst = dst, .imm = imm});
}
ProgramBuilder& ProgramBuilder::add(Reg dst, Reg src) {
  return emit({.op = Opcode::AddRR, .dst = dst, .src = src});
}
ProgramBuilder& ProgramBuilder::sub(Reg dst, std::int64_t imm) {
  return emit({.op = Opcode::SubRI, .dst = dst, .imm = imm});
}
ProgramBuilder& ProgramBuilder::sub(Reg dst, Reg src) {
  return emit({.op = Opcode::SubRR, .dst = dst, .src = src});
}
ProgramBuilder& ProgramBuilder::and_(Reg dst, std::int64_t imm) {
  return emit({.op = Opcode::AndRI, .dst = dst, .imm = imm});
}
ProgramBuilder& ProgramBuilder::xor_(Reg dst, Reg src) {
  return emit({.op = Opcode::XorRR, .dst = dst, .src = src});
}
ProgramBuilder& ProgramBuilder::shl(Reg dst, std::int64_t imm) {
  return emit({.op = Opcode::ShlRI, .dst = dst, .imm = imm});
}
ProgramBuilder& ProgramBuilder::imul(Reg dst, Reg src) {
  return emit({.op = Opcode::ImulRR, .dst = dst, .src = src});
}
ProgramBuilder& ProgramBuilder::fdiv(Reg dst, Reg src) {
  return emit({.op = Opcode::FdivRR, .dst = dst, .src = src});
}
ProgramBuilder& ProgramBuilder::neg(Reg dst) {
  return emit({.op = Opcode::Neg, .dst = dst});
}
ProgramBuilder& ProgramBuilder::not_(Reg dst) {
  return emit({.op = Opcode::Not, .dst = dst});
}
ProgramBuilder& ProgramBuilder::cmov(Cond c, Reg dst, Reg src) {
  return emit({.op = Opcode::Cmov, .dst = dst, .src = src, .cond = c});
}
ProgramBuilder& ProgramBuilder::cmp(Reg dst, std::int64_t imm) {
  return emit({.op = Opcode::CmpRI, .dst = dst, .imm = imm});
}
ProgramBuilder& ProgramBuilder::cmp(Reg dst, Reg src) {
  return emit({.op = Opcode::CmpRR, .dst = dst, .src = src});
}
ProgramBuilder& ProgramBuilder::jcc(Cond c, const std::string& target) {
  return emit_branch({.op = Opcode::Jcc, .cond = c}, target);
}
ProgramBuilder& ProgramBuilder::jmp(const std::string& target) {
  return emit_branch({.op = Opcode::Jmp}, target);
}
ProgramBuilder& ProgramBuilder::call(const std::string& target) {
  return emit_branch({.op = Opcode::Call}, target);
}
ProgramBuilder& ProgramBuilder::ret() { return emit({.op = Opcode::Ret}); }
ProgramBuilder& ProgramBuilder::clflush(Reg base, std::int64_t disp) {
  return emit({.op = Opcode::Clflush, .base = base, .disp = disp});
}
ProgramBuilder& ProgramBuilder::prefetch(Reg base, std::int64_t disp) {
  return emit({.op = Opcode::Prefetch, .base = base, .disp = disp});
}
ProgramBuilder& ProgramBuilder::mfence() {
  return emit({.op = Opcode::Mfence});
}
ProgramBuilder& ProgramBuilder::lfence() {
  return emit({.op = Opcode::Lfence});
}
ProgramBuilder& ProgramBuilder::avx(Reg dep) {
  // `dep` models a data dependency feeding the vector op (vmovq xmm, dep).
  return emit({.op = Opcode::AvxOp, .src = dep});
}
ProgramBuilder& ProgramBuilder::rdtsc(Reg dst) {
  return emit({.op = Opcode::Rdtsc, .dst = dst});
}
ProgramBuilder& ProgramBuilder::rdtscp(Reg dst) {
  return emit({.op = Opcode::Rdtscp, .dst = dst});
}
ProgramBuilder& ProgramBuilder::tsx_begin(const std::string& abort_target) {
  return emit_branch({.op = Opcode::TsxBegin}, abort_target);
}
ProgramBuilder& ProgramBuilder::tsx_end() {
  return emit({.op = Opcode::TsxEnd});
}
ProgramBuilder& ProgramBuilder::halt() { return emit({.op = Opcode::Halt}); }

Program ProgramBuilder::build() {
  for (const auto& [index, name] : fixups_) {
    auto it = labels_.find(name);
    if (it == labels_.end())
      throw std::invalid_argument("ProgramBuilder: unresolved label '" + name +
                                  "'");
    code_[index].target = it->second;
  }
  fixups_.clear();
  for (const auto& [index, name] : imm_fixups_) {
    auto it = labels_.find(name);
    if (it == labels_.end())
      throw std::invalid_argument("ProgramBuilder: unresolved label '" + name +
                                  "'");
    code_[index].imm = it->second;
  }
  imm_fixups_.clear();
  return Program(code_, labels_);
}

}  // namespace whisper::isa

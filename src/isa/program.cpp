#include "isa/program.h"

#include <sstream>
#include <stdexcept>

namespace whisper::isa {

namespace {

std::uint64_t content_fnv1a(const std::vector<Instruction>& code) {
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = kBasis;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= kPrime;
    }
  };
  mix(code.size());
  for (const Instruction& in : code) {
    mix(static_cast<std::uint64_t>(in.op) |
        (static_cast<std::uint64_t>(in.dst) << 8) |
        (static_cast<std::uint64_t>(in.src) << 16) |
        (static_cast<std::uint64_t>(in.base) << 24) |
        (static_cast<std::uint64_t>(in.cond) << 32));
    mix(static_cast<std::uint64_t>(in.imm));
    mix(static_cast<std::uint64_t>(in.disp));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(in.target)));
  }
  return h;
}

}  // namespace

Program::Program(std::vector<Instruction> code,
                 std::map<std::string, int> labels)
    : code_(std::move(code)), labels_(std::move(labels)),
      hash_(content_fnv1a(code_)) {
  validate();
}

int Program::label(const std::string& name) const {
  auto it = labels_.find(name);
  if (it == labels_.end())
    throw std::out_of_range("Program: unknown label '" + name + "'");
  return it->second;
}

bool Program::has_label(const std::string& name) const {
  return labels_.contains(name);
}

void Program::validate() const {
  for (std::size_t i = 0; i < code_.size(); ++i) {
    const Instruction& in = code_[i];
    if (in.has_target() &&
        (in.target < 0 ||
         static_cast<std::size_t>(in.target) >= code_.size())) {
      std::ostringstream msg;
      msg << "Program: instruction " << i << " (" << in.to_string()
          << ") has out-of-range target " << in.target;
      throw std::invalid_argument(msg.str());
    }
  }
  for (const auto& [name, idx] : labels_) {
    if (idx < 0 || static_cast<std::size_t>(idx) > code_.size())
      throw std::invalid_argument("Program: label '" + name +
                                  "' is out of range");
  }
}

std::string Program::disassemble() const {
  // Invert the label map for annotation.
  std::map<int, std::vector<std::string>> by_index;
  for (const auto& [name, idx] : labels_) by_index[idx].push_back(name);

  std::ostringstream out;
  for (std::size_t i = 0; i < code_.size(); ++i) {
    if (auto it = by_index.find(static_cast<int>(i)); it != by_index.end())
      for (const auto& name : it->second) out << name << ":\n";
    out << "  " << i << ":\t" << code_[i].to_string() << '\n';
  }
  return out.str();
}

}  // namespace whisper::isa

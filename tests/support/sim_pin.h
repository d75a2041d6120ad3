// Simulation pin: content digests of simulator observables, checked in as
// tests/golden/simulation.pin.
//
// The identity suites (fast-forward on ≡ off, reset ≡ fresh) compare two
// runs of the current simulator with each other, so a scheduler change that
// moves both sides the same way still passes them. The pin compares the
// structural side against bytes recorded from an earlier build: every cell
// renders its observables (AttackResult fields, PMU images, cycles,
// registers, trace bytes) into canonical text, and the FNV-1a digest of that
// text must equal the one stored under the cell's key.
//
// The file is only rewritten by an explicit
//
//   whisper_tests --update-golden      (and test_obs --update-golden)
//
// run serially in one process; ctest never passes the flag. Each line is
// `<key> <digest> <rendered bytes>`, sorted by key.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/attacks/attack.h"
#include "uarch/pmu.h"

#ifndef WHISPER_GOLDEN_DIR
#define WHISPER_GOLDEN_DIR "tests/golden"
#endif

namespace whisper::test_support {

/// Set by the test binaries' main() when --update-golden is passed.
inline bool& update_golden() {
  static bool flag = false;
  return flag;
}

/// Consume --update-golden from argv (after InitGoogleTest).
inline void parse_golden_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--update-golden") update_golden() = true;
}

inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Canonical text of one cell: `name=value` lines, doubles as exact bits.
class PinText {
 public:
  PinText& u(std::string_view name, std::uint64_t v) {
    out_ << name << '=' << v << '\n';
    return *this;
  }
  PinText& d(std::string_view name, double v) {
    return u(name, std::bit_cast<std::uint64_t>(v));
  }
  PinText& bytes(std::string_view name, const std::vector<std::uint8_t>& b) {
    out_ << name << '=';
    for (const std::uint8_t x : b) out_ << static_cast<unsigned>(x) << ',';
    out_ << '\n';
    return *this;
  }
  PinText& words(std::string_view name, const std::vector<std::uint64_t>& w) {
    out_ << name << '=';
    for (const std::uint64_t x : w) out_ << x << ',';
    out_ << '\n';
    return *this;
  }
  PinText& pmu(std::string_view name, const uarch::PmuSnapshot& p) {
    return words(name, std::vector<std::uint64_t>(p.begin(), p.end()));
  }
  PinText& attack(const core::AttackResult& r) {
    u("success", r.success);
    bytes("bytes", r.bytes);
    u("byte_errors", r.byte_errors);
    u("probes", r.probes);
    u("cycles", r.cycles);
    d("seconds", r.seconds);
    d("confidence", r.confidence);
    u("gave_up", r.gave_up);
    out_ << "tote=";
    for (const auto& [bucket, count] : r.tote.buckets())
      out_ << bucket << ':' << count << ',';
    out_ << '\n';
    u("found_slot", static_cast<std::uint64_t>(r.found_slot));
    u("found_base", r.found_base);
    u("true_base", r.true_base);
    return words("slot_scores", r.slot_scores);
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

/// "<suite>.<test>/<suffix>" for the running test: parameterized suites
/// get one key per instance without spelling the parameter twice.
inline std::string pin_key(std::string_view suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string key = std::string(info->test_suite_name()) + "." + info->name();
  if (!suffix.empty()) key += "/" + std::string(suffix);
  return key;
}

/// Check `text` against the pin stored under `key` (or record it under
/// --update-golden).
inline testing::AssertionResult matches_pin(const std::string& key,
                                            const std::string& text) {
  const std::string path = std::string(WHISPER_GOLDEN_DIR) + "/simulation.pin";
  char value[64];
  std::snprintf(value, sizeof value, "%016" PRIx64 " %zu", fnv1a(text),
                text.size());

  std::map<std::string, std::string> pins;
  std::string header;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') {
        header += line + '\n';
        continue;
      }
      const std::size_t sp = line.find(' ');
      if (sp != std::string::npos) pins[line.substr(0, sp)] = line.substr(sp + 1);
    }
  }

  if (update_golden()) {
    pins[key] = value;
    std::ofstream out(path, std::ios::trunc);
    if (!out) return testing::AssertionFailure() << "cannot write " << path;
    out << header;
    for (const auto& [k, v] : pins) out << k << ' ' << v << '\n';
    return testing::AssertionSuccess();
  }

  const auto it = pins.find(key);
  if (it == pins.end())
    return testing::AssertionFailure()
           << "no pin for " << key << " in " << path
           << " — record it with whisper_tests --update-golden";
  if (it->second == value) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "simulation diverged from the pin for " << key << "\n  pinned: "
         << it->second << "\n  actual: " << value << "\nrendered cell:\n"
         << text.substr(0, 4000);
}

}  // namespace whisper::test_support

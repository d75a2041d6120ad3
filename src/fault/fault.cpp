#include "fault/fault.h"

#include <cctype>
#include <concepts>
#include <optional>
#include <stdexcept>

#include "stats/parse.h"
#include "stats/rng.h"

namespace whisper::fault {

namespace {

/// Salt per fault kind so two random points with the same seed but
/// different kinds flip independent coins.
constexpr std::uint64_t kind_salt(Kind k) noexcept {
  return 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(k) + 1);
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void bad(const std::string& token, const std::string& why) {
  throw std::invalid_argument("fault: bad plan point '" + token + "': " + why +
                              " (grammar: kind@trial[.attempt|*] or "
                              "kind~permille@seed; kinds: throw, corrupt, "
                              "stall, sleep, drop, shortread)");
}

Kind parse_kind(const std::string& token, const std::string& name) {
  if (name == "throw") return Kind::kThrow;
  if (name == "corrupt") return Kind::kCorrupt;
  if (name == "stall") return Kind::kStall;
  if (name == "sleep") return Kind::kSleep;
  if (name == "drop") return Kind::kDrop;
  if (name == "shortread") return Kind::kShortRead;
  bad(token, "unknown fault kind '" + name + "'");
}

template <std::integral T = std::uint64_t>
T parse_number(const std::string& token, const std::string& digits,
               const std::string& what) {
  if (digits.empty()) bad(token, what + " is empty");
  const std::optional<T> v = stats::parse_uint<T>(digits);
  if (!v) bad(token, what + " '" + digits + "' is not a number");
  return *v;
}

Point parse_point(const std::string& token) {
  Point p;
  const std::size_t at = token.find('@');
  const std::size_t tilde = token.find('~');

  if (tilde != std::string::npos && (at == std::string::npos || tilde < at)) {
    // kind~permille@seed
    if (at == std::string::npos) bad(token, "random form needs '@seed'");
    p.kind = parse_kind(token, token.substr(0, tilde));
    p.random = true;
    const std::uint64_t rate =
        parse_number(token, token.substr(tilde + 1, at - tilde - 1), "rate");
    if (rate > 1000) bad(token, "rate is per-mille, must be <= 1000");
    p.rate_permille = static_cast<std::uint32_t>(rate);
    p.seed = parse_number(token, token.substr(at + 1), "seed");
    return p;
  }

  if (at == std::string::npos) bad(token, "missing '@trial'");
  p.kind = parse_kind(token, token.substr(0, at));
  std::string rest = token.substr(at + 1);
  if (!rest.empty() && rest.back() == '*') {
    p.attempt = -1;  // every attempt
    rest.pop_back();
  } else if (const std::size_t dot = rest.find('.');
             dot != std::string::npos) {
    p.attempt = parse_number<int>(token, rest.substr(dot + 1), "attempt");
    rest = rest.substr(0, dot);
  }
  p.trial = parse_number(token, rest, "trial");
  return p;
}

}  // namespace

const char* to_string(Kind k) noexcept {
  switch (k) {
    case Kind::kThrow: return "throw";
    case Kind::kCorrupt: return "corrupt";
    case Kind::kStall: return "stall";
    case Kind::kSleep: return "sleep";
    case Kind::kDrop: return "drop";
    case Kind::kShortRead: return "shortread";
  }
  return "?";
}

bool Point::matches(std::uint64_t trial_index,
                    int attempt_index) const noexcept {
  if (random) {
    // Seeded coin flip on the first attempt only: one whitening pass over
    // (seed, trial, kind) keeps the decision independent of neighbours.
    if (attempt_index != 0) return false;
    const std::uint64_t roll =
        stats::SplitMix64(seed ^ (trial_index * 0x2545f4914f6cdd1dull) ^
                          kind_salt(kind))
            .next();
    return roll % 1000 < rate_permille;
  }
  if (trial != trial_index) return false;
  return attempt == -1 || attempt == attempt_index;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  plan.spec_ = trim(spec);
  std::string token;
  const auto flush = [&] {
    const std::string t = trim(token);
    token.clear();
    if (!t.empty()) plan.points_.push_back(parse_point(t));
  };
  for (const char c : plan.spec_) {
    if (c == ';' || c == ',') {
      flush();
    } else {
      token += c;
    }
  }
  flush();
  return plan;
}

bool FaultPlan::uses(Kind k) const noexcept {
  for (const Point& p : points_)
    if (p.kind == k) return true;
  return false;
}

bool FaultPlan::fires(Kind k, std::uint64_t trial,
                      int attempt) const noexcept {
  for (const Point& p : points_)
    if (p.kind == k && p.matches(trial, attempt)) return true;
  return false;
}

}  // namespace whisper::fault

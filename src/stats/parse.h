// Whole-token number parsing for command-line values.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace whisper::stats {

/// All of `text` as a non-negative decimal or 0x-prefixed hex integer that
/// fits T; nullopt for an empty token, trailing garbage ("12x", "foo") or
/// overflow. A prefix parse would read "0x7ab1e2" as 0.
template <std::integral T>
[[nodiscard]] std::optional<T> parse_uint(std::string_view text) {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
  if (ec != std::errc{} || ptr != end ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
    return std::nullopt;
  return static_cast<T>(v);
}

/// All of `text` as a finite decimal floating-point number ("0.5", "-2",
/// "1e-3"); nullopt for an empty token, trailing garbage ("1abc"), "inf",
/// "nan" or a value out of double range. atof would read "1abc" as 1.
[[nodiscard]] inline std::optional<double> parse_double(std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace whisper::stats

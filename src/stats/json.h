// Minimal JSON toolkit: the one writer (runner trajectories, obs metrics
// and Chrome traces, serve responses and run requests) and the one reader
// (serve requests, client responses, bench self-validation passes).
//
// Hand-rolled (no third-party JSON dependency in the image). The writer's
// output is deterministic (fixed key order, fixed float formatting), so an
// exported file is diffable across runs and across --jobs values. The
// reader is a strict RFC 8259 parser that is safe on hostile input: nesting
// is capped at kMaxJsonDepth, lone surrogates are refused, and integer
// literals stay exact to 64 bits instead of rounding through a double.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace whisper::stats {

/// Incremental JSON writer. Keys and values must be emitted in pairs inside
/// objects; the writer inserts commas and quoting.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& k);
  void value(const std::string& v);
  void value(const char* v);
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v);
  void value(bool v);
  /// key(k) then value(v).
  template <typename T>
  void field(const std::string& k, const T& v) {
    key(k);
    value(v);
  }
  /// A double spelled with %.17g, which json_parse() reads back bit for
  /// bit. value(double) keeps the shorter %.9g of the exported files; this
  /// is for inputs a reader must reconstruct exactly (run requests).
  void exact(double v);

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void comma();
  void escaped(const std::string& s);
  void scalar(std::string_view text);
  void real(const char* format, double v);

  std::string out_;
  bool need_comma_ = false;
};

/// Deepest array/object nesting json_parse() accepts. The parser recurses
/// once per level, so the cap bounds its stack use on any input.
inline constexpr int kMaxJsonDepth = 256;

/// Malformed input: "bad JSON at byte N: why".
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct JsonValue {
  enum class Type : std::uint8_t { Null, Bool, Number, String, Object, Array };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;  // every number, as the nearest double
  /// Exact integer view of a number, set when it is an integer: an integer
  /// literal within [-2^63, 2^64), or any other spelling ("1e3", "2.0")
  /// whose double is an integer of magnitude <= 2^53. `integer` holds the
  /// value, as an int64 in two's complement when `negative`.
  bool integral = false;
  bool negative = false;
  std::uint64_t integer = 0;
  std::string string;
  /// Members in document order; duplicate keys keep the last value.
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  [[nodiscard]] bool is_null() const { return type == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type == Type::Bool; }
  [[nodiscard]] bool is_number() const { return type == Type::Number; }
  [[nodiscard]] bool is_string() const { return type == Type::String; }
  [[nodiscard]] bool is_object() const { return type == Type::Object; }
  [[nodiscard]] bool is_array() const { return type == Type::Array; }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* get(std::string_view key) const;

  /// Checked integer read: the exact value when this is an integral number
  /// in [lo, hi]; nullopt for anything else (non-numbers, fractions,
  /// out-of-range values). Never casts a double.
  template <std::integral T>
  [[nodiscard]] std::optional<T> as_int(
      T lo = std::numeric_limits<T>::min(),
      T hi = std::numeric_limits<T>::max()) const {
    const auto fit = [lo, hi](auto v) -> std::optional<T> {
      if (std::cmp_less(v, lo) || std::cmp_greater(v, hi)) return std::nullopt;
      return static_cast<T>(v);
    };
    if (type != Type::Number || !integral) return std::nullopt;
    return negative ? fit(static_cast<std::int64_t>(integer)) : fit(integer);
  }
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// Throws JsonError with a pointed message on malformed input.
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// json_parse() accepts `text`. Used by tests and self-validating benches
/// to assert every exporter emits well-formed output.
[[nodiscard]] bool json_is_valid(std::string_view text);

}  // namespace whisper::stats

// The RunSpec schema: the one place a RunSpec field is spelled.
//
// One row per field a run request or a command line can set, in wire
// order: the field's JSON encode and decode, and its command-line decode.
// serve::parse_request() and run_request_line() drive the wire from these
// rows; whisper_cli and the harnesses add the rows they take as flags with
// add_flag(). So the cpu index range check, the noise preset lookup and
// the defense grammar are each written once. Every decoder throws
// std::invalid_argument: the JSON decoders name the field, the text
// decoders describe the value for a flag table to print after the flag.
//
// The trajectory writer (json_writer.h) keeps its own spec encoding on
// purpose: it names the model, says "base_seed" and nests the noise.
#pragma once

#include <concepts>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "runner/runner.h"
#include "stats/flags.h"
#include "stats/json.h"

namespace whisper::runner {

struct SpecField {
  const char* name;  // the run-request key
  const char* flag;  // the command-line spelling, without "--"
  /// kToggle for boolean fields, kRepeat for the defense stack (each flag
  /// appends one entry), kValue for the rest.
  stats::Flags::Arity arity;
  const char* metavar;
  const char* help;
  void (*encode)(stats::JsonWriter& w, const RunSpec& spec);
  void (*decode)(RunSpec& spec, const stats::JsonValue& v, const char* name);
  /// A command-line value; boolean fields take "true" or "false".
  void (*parse)(RunSpec& spec, std::string_view text);
};

/// Every row, in wire order.
[[nodiscard]] std::span<const SpecField> spec_fields();
/// The row whose run-request key is `name`; nullptr if there is none.
[[nodiscard]] const SpecField* find_spec_field(std::string_view name);

/// Add the flag of schema row `field` to `flags`, writing into `spec`.
/// `flag` and `help` replace the row's own spelling and help line. A
/// toggle sets its field to true, or to false when its spelling starts
/// with "no-" (--no-fast-forward).
void add_flag(stats::Flags& flags, RunSpec& spec, std::string_view field,
              std::string flag = "", std::string help = "");

/// The exact integer in [lo, hi] that `v` holds, never a cast of a double
/// (so 1e10 trials or a 1e30 seed is refused by name).
template <std::integral T>
[[nodiscard]] T json_int(const stats::JsonValue& v, const char* field,
                         T lo = 0, T hi = std::numeric_limits<T>::max()) {
  if (const std::optional<T> n = v.as_int<T>(lo, hi)) return *n;
  throw std::invalid_argument(std::string("field '") + field +
                              "' must be an integer in " +
                              std::to_string(lo) + ".." + std::to_string(hi));
}

/// Typed read of one JSON field; integers go through json_int().
template <typename T>
[[nodiscard]] T json_read(const stats::JsonValue& v, const char* field) {
  const auto refuse = [field](const char* want) {
    return std::invalid_argument(std::string("field '") + field +
                                 "' must be " + want);
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) throw refuse("a boolean");
    return v.boolean;
  } else if constexpr (std::is_integral_v<T>) {
    return json_int<T>(v, field);
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number()) throw refuse("a number");
    return v.number;
  } else {
    if (!v.is_string()) throw refuse("a string");
    return v.string;
  }
}

}  // namespace whisper::runner

// The one command-line parser: a declarative flag table per binary.
//
// A binary builds one Flags table and calls parse(). A row holds the flag's
// name, its arity (a toggle, a value, or a value that may repeat), a help
// line and a setter; value() builds the setter from the bound variable's
// type through parse_as(), list() from comma_list(). parse() exits with
// status 2 on an unknown flag, a missing or malformed value or a value
// flag given twice, naming the flag: "prog: --seed takes a decimal or
// 0x-hex integer, got '12x'". --help prints the table and exits 0.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "stats/parse.h"

namespace whisper::stats {

/// The non-empty items of a comma-separated list: ",a,,b" is {a, b}.
[[nodiscard]] inline std::vector<std::string> comma_list(
    std::string_view text) {
  std::vector<std::string> out;
  while (!text.empty()) {
    const std::size_t comma = std::min(text.find(','), text.size());
    if (comma > 0) out.emplace_back(text.substr(0, comma));
    text.remove_prefix(std::min(comma + 1, text.size()));
  }
  return out;
}

/// `text` as a T: "true" or "false", a whole parse_uint() integer, a whole
/// finite parse_double() or the string itself. Anything
/// else throws std::invalid_argument, whose message follows the flag's
/// name ("takes a decimal or 0x-hex integer, got '12x'").
template <typename T>
[[nodiscard]] T parse_as(std::string_view text) {
  const auto refuse = [text](const char* want) {
    return std::invalid_argument(std::string("takes ") + want + ", got '" +
                                 std::string(text) + "'");
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (text != "true" && text != "false") throw refuse("true or false");
    return text == "true";
  } else if constexpr (std::is_integral_v<T>) {
    if (const std::optional<T> v = parse_uint<T>(text)) return *v;
    throw refuse("a decimal or 0x-hex integer");
  } else if constexpr (std::is_same_v<T, double>) {
    if (const std::optional<double> v = parse_double(text)) return *v;
    throw refuse("a finite decimal number");
  } else {
    return T(text);
  }
}

class Flags {
 public:
  enum class Arity { kToggle, kValue, kRepeat };
  using Setter = std::function<void(std::string_view)>;

  /// `prog` starts every message and the usage line ("whisper_cli kaslr").
  explicit Flags(std::string prog, std::string summary = "")
      : prog_(std::move(prog)), summary_(std::move(summary)) {}

  /// A row; a toggle's setter receives "". A setter rejects a malformed
  /// value by throwing std::invalid_argument.
  Flags& add(std::string name, Arity arity, std::string metavar,
             std::string help, Setter set) {
    rows_.push_back({std::move(name), arity, std::move(metavar),
                     std::move(help), std::move(set), "", false});
    return *this;
  }
  Flags& toggle(std::string name, std::string help, bool& out,
                bool value = true) {
    return add(std::move(name), Arity::kToggle, "", std::move(help),
               [&out, value](std::string_view) { out = value; });
  }
  /// A value flag read into `out` through parse_as<T>().
  template <typename T>
  Flags& value(std::string name, std::string metavar, std::string help,
               T& out) {
    return add(std::move(name), Arity::kValue, std::move(metavar),
               std::move(help),
               [&out](std::string_view t) { out = parse_as<T>(t); });
  }
  /// A comma_list() flag. An empty list is refused, and so is an item that
  /// `check` (optional) refuses by throwing std::invalid_argument.
  Flags& list(std::string name, std::string help,
              std::vector<std::string>& out,
              void (*check)(const std::string& item) = nullptr) {
    return add(std::move(name), Arity::kValue, "LIST", std::move(help),
               [&out, check](std::string_view t) {
                 out = comma_list(t);
                 if (out.empty()) throw std::invalid_argument("names no item");
                 for (const std::string& item : out)
                   if (check != nullptr) check(item);
               });
  }
  /// A spelling that would run something else than asked if it were
  /// ignored (a retired flag): reported with `why`, left out of --help.
  Flags& refuse(std::string name, std::string why, bool takes_value = false) {
    rows_.push_back({std::move(name),
                     takes_value ? Arity::kValue : Arity::kToggle, "", "",
                     nullptr, std::move(why), false});
    return *this;
  }
  /// The one optional bare argument (not starting with "--").
  Flags& positional(std::string metavar, std::string help, std::string& out) {
    positional_ = Row{std::move(metavar), Arity::kValue, "", std::move(help),
                      [&out](std::string_view t) { out = t; }, "", false};
    return *this;
  }

  /// Apply argv[first..argc) to the rows. Every refused flag is reported
  /// before the exit; any other error exits at once.
  void parse(int argc, char** argv, int first = 1) {
    bool refused = false;
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::fputs(help().c_str(), stdout);
        std::exit(0);
      }
      if (!arg.starts_with("--")) {
        if (!positional_ || positional_->seen)
          fail("unexpected argument '" + arg + "' (see --help)");
        positional_->seen = true;
        positional_->set(arg);
        continue;
      }
      Row* row = find(std::string_view(arg).substr(2));
      if (row == nullptr) fail("unknown flag " + arg + " (see --help)");
      if (!row->refused.empty()) {
        std::fprintf(stderr, "%s: %s %s\n", prog_.c_str(), arg.c_str(),
                     row->refused.c_str());
        refused = true;
        if (row->arity != Arity::kToggle) ++i;  // its value goes with it
        continue;
      }
      if (row->arity == Arity::kValue && row->seen)
        fail(arg + " is given more than once");
      row->seen = true;
      if (row->arity != Arity::kToggle && i + 1 >= argc)
        fail(arg + " needs a value (" + row->metavar + ")");
      try {
        row->set(row->arity == Arity::kToggle ? "" : argv[++i]);
      } catch (const std::invalid_argument& e) {
        fail(arg + " " + e.what());
      }
    }
    if (refused) std::exit(2);
  }

  /// Did parse() meet flag `name`?
  [[nodiscard]] bool seen(std::string_view name) const {
    for (const Row& r : rows_)
      if (r.name == name) return r.seen;
    return false;
  }

  /// The generated table: a usage line, the summary, one line per row.
  [[nodiscard]] std::string help() const {
    std::string out = "usage: " + prog_ + " [flags]" +
                      (positional_ ? " [" + positional_->name + "]" : "") +
                      "\n" + (summary_.empty() ? "" : summary_ + "\n");
    const auto line = [&out](std::string lhs, const std::string& text) {
      lhs = "  " + lhs;
      lhs += lhs.size() < 28 ? std::string(28 - lhs.size(), ' ')
                             : "\n" + std::string(28, ' ');
      out += lhs + text + "\n";
    };
    if (positional_) line(positional_->name, positional_->help);
    for (const Row& r : rows_)
      if (r.refused.empty())
        line("--" + r.name + (r.metavar.empty() ? "" : " " + r.metavar),
             r.help + (r.arity == Arity::kRepeat ? " (repeatable)" : ""));
    line("--help", "print this table and exit");
    return out;
  }

 private:
  struct Row {
    std::string name;  // without the leading "--"
    Arity arity = Arity::kValue;
    std::string metavar;  // the value's placeholder in --help ("N", "PATH")
    std::string help;
    Setter set;
    std::string refused;  // non-empty: refused with this reason
    bool seen = false;
  };

  Row* find(std::string_view name) {
    for (Row& r : rows_)
      if (r.name == name) return &r;
    return nullptr;
  }
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", prog_.c_str(), message.c_str());
    std::exit(2);
  }

  std::string prog_;
  std::string summary_;
  std::vector<Row> rows_;
  std::optional<Row> positional_;
};

}  // namespace whisper::stats

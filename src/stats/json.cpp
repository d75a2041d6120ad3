#include "stats/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace whisper::stats {

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

void JsonWriter::escaped(const std::string& s) {
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
}

void JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
}

void JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
}

void JsonWriter::key(const std::string& k) {
  comma();
  escaped(k);
  out_ += ':';
}

void JsonWriter::value(const std::string& v) {
  comma();
  escaped(v);
  need_comma_ = true;
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::scalar(std::string_view text) {
  comma();
  out_ += text;
  need_comma_ = true;
}

void JsonWriter::real(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  scalar(buf);
}

void JsonWriter::value(double v) { real("%.9g", v); }

void JsonWriter::exact(double v) { real("%.17g", v); }

void JsonWriter::value(std::uint64_t v) {
  char buf[24];
  scalar({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
}

void JsonWriter::value(std::int64_t v) {
  char buf[24];
  scalar({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
}

void JsonWriter::value(int v) { value(static_cast<std::int64_t>(v)); }

void JsonWriter::value(bool v) { scalar(v ? "true" : "false"); }

const JsonValue* JsonValue::get(std::string_view key) const {
  if (type != Type::Object) return nullptr;
  // Last occurrence wins, matching how the members were accumulated.
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object)
    if (k == key) found = &v;
  return found;
}

// ---------------------------------------------------------------------------
// Reader: recursive descent over the RFC 8259 grammar, one level of
// recursion per nesting level (capped at kMaxJsonDepth).
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return v;
  }

 private:
  using Type = JsonValue::Type;

  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("bad JSON at byte " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    ++pos_;
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void digits() {
    while (digit()) ++pos_;
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{':
      case '[':
        return container();
      case '"':
        v.type = Type::String;
        v.string = string();
        return v;
      case 'n':
        if (!consume("null")) fail("unrecognised literal");
        return v;
      case 't':
      case 'f':
        v.type = Type::Bool;
        v.boolean = consume("true");
        if (!v.boolean && !consume("false")) fail("unrecognised literal");
        return v;
      default:
        return number();
    }
  }

  /// An object or array: one recursion level, counted against the cap.
  JsonValue container() {
    if (++depth_ > kMaxJsonDepth)
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
    JsonValue v;
    v.type = text_[pos_++] == '{' ? Type::Object : Type::Array;
    const char close = v.type == Type::Object ? '}' : ']';
    skip_ws();
    if (peek() != close) {
      for (;;) {
        if (v.type == Type::Object) {
          skip_ws();
          std::string key = string();
          skip_ws();
          expect(':');
          v.object.emplace_back(std::move(key), value());
        } else {
          v.array.push_back(value());
        }
        skip_ws();
        if (peek() != ',') break;
        ++pos_;
      }
    }
    expect(close);
    --depth_;
    return v;
  }

  unsigned hex4() {
    unsigned v = 0;
    const char* p = text_.data() + pos_;
    if (text_.size() - pos_ < 4 ||
        std::from_chars(p, p + 4, v, 16).ptr != p + 4)
      fail("bad \\u escape");
    pos_ += 4;
    return v;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out.push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
    for (int i = tail - 1; i >= 0; --i)
      out.push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
  }

  std::string string() {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      if (const std::size_t k = kEscapes.find(e); k != std::string_view::npos) {
        out.push_back(kDecoded[k]);
        continue;
      }
      if (e != 'u') fail("bad escape character");
      unsigned cp = hex4();
      if (cp >= 0xD800 && cp <= 0xDBFF) {
        // High surrogate: a low surrogate must follow.
        if (!consume("\\u")) fail("lone high surrogate");
        const unsigned lo = hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
        fail("lone low surrogate");
      }
      append_utf8(out, cp);
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    JsonValue v;
    v.type = Type::Number;
    v.negative = consume("-");
    // int part: 0, or [1-9][0-9]*
    const std::size_t int_start = pos_;
    if (!digit()) fail("bad number");
    if (!consume("0")) digits();
    const std::size_t int_end = pos_;
    if (consume(".")) {
      if (!digit()) fail("bad number: digits must follow '.'");
      digits();
    }
    if (consume("e") || consume("E")) {
      if (!consume("+")) consume("-");
      if (!digit()) fail("bad number: empty exponent");
      digits();
    }

    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (std::from_chars(first, last, v.number).ec != std::errc{})
      // Overflow or underflow: strtod's ±HUGE_VAL / denormal answer, on a
      // copy (the only allocating case).
      v.number = std::strtod(std::string(first, last).c_str(), nullptr);
    if (int_end == pos_) {
      // Integer literal: exact within [-2^63, 2^64).
      std::uint64_t mag = 0;
      v.integral = std::from_chars(text_.data() + int_start,
                                   text_.data() + int_end, mag)
                       .ec == std::errc{} &&
                   (!v.negative || mag <= std::uint64_t{1} << 63);
      v.integer = v.negative ? 0 - mag : mag;
    } else if (std::trunc(v.number) == v.number &&
               std::fabs(v.number) <= 9007199254740992.0) {  // 2^53
      v.integral = true;
      v.integer =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(v.number));
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) { return Parser(text).document(); }

bool json_is_valid(std::string_view text) {
  try {
    (void)json_parse(text);
    return true;
  } catch (const JsonError&) {
    return false;
  }
}

}  // namespace whisper::stats

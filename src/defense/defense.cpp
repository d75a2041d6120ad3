#include "defense/defense.h"

#include <optional>
#include <stdexcept>

#include "stats/parse.h"
#include "uarch/config.h"

namespace whisper::defense {

namespace {

bool valid_word(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

[[noreturn]] void bad_spec(std::string_view text, const char* why) {
  throw std::invalid_argument("defense: cannot parse '" + std::string(text) +
                              "': " + why +
                              " (grammar: name[:key=value]...)");
}

/// The uarch hook point: materialize the config override from the model
/// preset on first touch. Content-identical to the preset the Machine
/// constructor would derive itself, so touching only kernel bits keeps the
/// machine byte-identical to the pre-defense-API spelling.
uarch::CpuConfig& config_of(os::MachineOptions& mo) {
  if (!mo.config) mo.config = uarch::make_config(mo.model);
  return *mo.config;
}

const DefenseInfo& info_or_throw(const std::string& name) {
  const DefenseInfo* info = find_defense(name);
  if (info == nullptr) {
    std::string msg = "defense: unknown defense '" + name + "' (registered: ";
    const std::vector<std::string> names = defense_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i) msg += ", ";
      msg += names[i];
    }
    throw std::invalid_argument(msg + ")");
  }
  return *info;
}

/// Integer parameter with registry default and a closed range; anything
/// else throws with the defense and key named.
int int_param(const DefenseSpec& spec, const DefenseInfo& info,
              std::string_view key, int lo, int hi) {
  const std::string* text = spec.param(key);
  if (text == nullptr) {
    for (const DefenseParamInfo& p : info.params)
      if (p.name == key) text = &p.default_value;
  }
  const std::optional<int> value =
      text ? stats::parse_uint<int>(*text) : std::nullopt;
  if (!value || *value < lo || *value > hi)
    throw std::invalid_argument(
        "defense: " + info.name + " parameter '" + std::string(key) +
        "' must be an integer in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got '" + (text ? *text : "") + "'");
  return *value;
}

// --- The registered hooks ------------------------------------------------

void apply_kpti(const DefenseSpec&, os::MachineOptions& mo) {
  mo.kernel.kpti = true;
}

void apply_flare(const DefenseSpec&, os::MachineOptions& mo) {
  mo.kernel.flare = true;
}

void apply_fgkaslr(const DefenseSpec&, os::MachineOptions& mo) {
  mo.kernel.fgkaslr = true;
}

void apply_lfence(const DefenseSpec&, os::MachineOptions& mo) {
  config_of(mo).lfence_after_branch = true;
}

void apply_window(const DefenseSpec& spec, os::MachineOptions& mo) {
  config_of(mo).speculation_window_limit =
      int_param(spec, info_or_throw("window"), "depth", 1, 1 << 20);
}

void apply_retpoline(const DefenseSpec&, os::MachineOptions& mo) {
  // BranchPredictor::predict_ret() already yields no prediction (front end
  // stalls until the ret resolves) when the RSB may not speculate — exactly
  // the retpoline contract, so the defense is one knob.
  config_of(mo).rsb_speculates = false;
}

void apply_flushclear(const DefenseSpec& spec, os::MachineOptions& mo) {
  uarch::CpuConfig& cfg = config_of(mo);
  cfg.flush_on_clear = true;
  cfg.flush_on_clear_levels =
      int_param(spec, info_or_throw("flushclear"), "levels", 1, 3);
}

}  // namespace

const std::string* DefenseSpec::param(std::string_view key) const {
  for (const auto& [k, v] : params)
    if (k == key) return &v;
  return nullptr;
}

DefenseSpec parse(std::string_view text) {
  DefenseSpec out;
  std::size_t pos = text.find(':');
  const std::string_view name = text.substr(0, pos);
  if (!valid_word(name)) bad_spec(text, "bad defense name");
  out.name = std::string(name);
  while (pos != std::string_view::npos) {
    const std::size_t start = pos + 1;
    pos = text.find(':', start);
    const std::string_view kv = text.substr(
        start, pos == std::string_view::npos ? pos : pos - start);
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos) bad_spec(text, "parameter without '='");
    const std::string_view key = kv.substr(0, eq);
    const std::string_view value = kv.substr(eq + 1);
    if (!valid_word(key)) bad_spec(text, "bad parameter key");
    if (!valid_word(value)) bad_spec(text, "bad parameter value");
    out.params.emplace_back(std::string(key), std::string(value));
  }
  return out;
}

std::string format(const DefenseSpec& spec) {
  std::string out = spec.name;
  for (const auto& [k, v] : spec.params) {
    out += ':';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::vector<DefenseSpec> parse_list(std::string_view text) {
  std::vector<DefenseSpec> out;
  if (text.empty() || text == "none") return out;
  std::size_t start = 0;
  while (true) {
    const std::size_t plus = text.find('+', start);
    out.push_back(parse(text.substr(
        start, plus == std::string_view::npos ? plus : plus - start)));
    if (plus == std::string_view::npos) break;
    start = plus + 1;
  }
  return out;
}

std::string format_list(const std::vector<DefenseSpec>& specs) {
  if (specs.empty()) return "none";
  std::string out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i) out += '+';
    out += format(specs[i]);
  }
  return out;
}

std::uint64_t hash_list(const std::vector<DefenseSpec>& specs) {
  // FNV-1a over the canonical combo string: one hash path, derived from the
  // one format path.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : format_list(specs)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

const std::vector<DefenseInfo>& registry() {
  // check_docs.sh (check 10) greps the name strings out of this table and
  // requires each in docs/REPRODUCING.md and docs/ARCHITECTURE.md.
  static const std::vector<DefenseInfo> kRegistry = {
      {"kpti",
       "kernel page-table isolation: user view keeps only the trampoline "
       "mapped (paper section 6.2)",
       {},
       apply_kpti},
      {"flare",
       "dummy mappings over the unmapped kernel gaps so mapped and unmapped "
       "probes fault alike",
       {},
       apply_flare},
      {"fgkaslr",
       "function-grained KASLR: shuffle offsets inside the kernel image at "
       "boot",
       {},
       apply_fgkaslr},
      {"lfence",
       "compiler serialization: dispatch stalls after every unresolved "
       "conditional branch, as if an LFENCE followed each Jcc",
       {},
       apply_lfence},
      {"window",
       "speculation-window narrowing: clamp how many uops may allocate past "
       "the oldest unresolved branch/fault",
       {{"depth", "8", "max uops allocated past an unresolved opener"}},
       apply_window},
      {"retpoline",
       "retpoline-style RSB hygiene: returns never speculate from the RSB; "
       "the front end waits for the real target",
       {},
       apply_retpoline},
      {"flushclear",
       "flush-on-clear: every machine clear also flushes the caches and "
       "drains the line-fill buffer",
       {{"levels", "1", "cache levels flushed on each clear (1-3)"}},
       apply_flushclear},
  };
  return kRegistry;
}

const DefenseInfo* find_defense(std::string_view name) {
  for (const DefenseInfo& d : registry())
    if (d.name == name) return &d;
  return nullptr;
}

std::vector<std::string> defense_names() {
  std::vector<std::string> out;
  out.reserve(registry().size());
  for (const DefenseInfo& d : registry()) out.push_back(d.name);
  return out;
}

void validate(const std::vector<DefenseSpec>& specs) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const DefenseInfo& info = info_or_throw(specs[i].name);
    for (std::size_t j = 0; j < i; ++j)
      if (specs[j].name == specs[i].name)
        throw std::invalid_argument("defense: duplicate defense '" +
                                    specs[i].name + "' in stack");
    for (const auto& [key, value] : specs[i].params) {
      (void)value;
      bool known = false;
      for (const DefenseParamInfo& p : info.params) known |= p.name == key;
      if (!known)
        throw std::invalid_argument("defense: " + info.name +
                                    " has no parameter '" + key + "'");
    }
    // Exercise the hook against scratch options so malformed parameter
    // values fail here, before any machine is built.
    os::MachineOptions scratch;
    info.apply(specs[i], scratch);
  }
}

void apply(const std::vector<DefenseSpec>& specs, os::MachineOptions& mo) {
  validate(specs);
  for (const DefenseSpec& spec : specs) find_defense(spec.name)->apply(spec, mo);
}

}  // namespace whisper::defense

#include "runner/spec_schema.h"

#include <algorithm>
#include <utility>

#include "defense/defense.h"
#include "noise/noise.h"
#include "uarch/config.h"

namespace whisper::runner {

namespace {

using stats::JsonValue;
using stats::JsonWriter;
using Arity = stats::Flags::Arity;

/// A row for a RunSpec member carried as-is.
template <auto M>
constexpr SpecField plain(const char* name, const char* flag,
                          const char* metavar, const char* help) {
  using T = std::remove_cvref_t<decltype(std::declval<RunSpec>().*M)>;
  return {name, flag, std::is_same_v<T, bool> ? Arity::kToggle : Arity::kValue,
          metavar, help,
          [](JsonWriter& w, const RunSpec& s) {
            if constexpr (std::is_same_v<T, double>)
              w.exact(s.*M);  // requests are inputs: rebuild them bit for bit
            else
              w.value(s.*M);
          },
          [](RunSpec& s, const JsonValue& v, const char* n) {
            s.*M = json_read<T>(v, n);
          },
          [](RunSpec& s, std::string_view t) {
            s.*M = stats::parse_as<T>(t);
          }};
}

/// all_models()[*index], in Table 2 order.
uarch::CpuModel cpu_model(std::optional<std::size_t> index) {
  const auto models = uarch::all_models();
  if (!index || *index >= models.size())
    throw std::invalid_argument("out of range (0.." +
                                std::to_string(models.size() - 1) + ")");
  return models[*index];
}

/// A named preset; the profile's seed travels separately ("noise_seed"),
/// so a seed set before the preset survives it.
void set_noise(RunSpec& s, const std::string& name) {
  const auto profile = noise::NoiseProfile::by_name(name);
  if (!profile) {
    std::string known;
    for (const auto& p : noise::NoiseProfile::preset_names()) {
      if (!known.empty()) known += ", ";
      known += p;
    }
    throw std::invalid_argument("unknown noise preset '" + name +
                                "' (presets: " + known + ")");
  }
  const std::uint64_t keep_seed = s.noise.seed;
  s.noise = *profile;
  if (keep_seed != 0) s.noise.seed = keep_seed;
}

/// The noise row carries a preset's name only, so a profile must be that
/// preset at every source's intensity: a scaled or hand-built profile
/// would be decoded as the full preset, different physics.
void check_preset(const noise::NoiseProfile& p) {
  const auto preset = noise::NoiseProfile::by_name(p.name);
  if (!preset || preset->sources != p.sources)
    throw std::invalid_argument("noise profile '" + p.name +
                                "' is not a named preset at its own "
                                "intensities; a spec carries preset name "
                                "and seed only");
}

const SpecField kFields[] = {
    plain<&RunSpec::attack>("attack", "attack", "NAME",
                            "attack registry key (whisper_cli attacks)"),
    {"cpu", "cpu", Arity::kValue, "IDX",
     "Table 2 machine: 0=i7-6700 1=i7-7700 2=i9-10980XE 3=i9-13900K "
     "4=Ryzen 5600G",
     [](JsonWriter& w, const RunSpec& s) {
       const auto models = uarch::all_models();
       const auto it = std::find(models.begin(), models.end(), s.model);
       if (it == models.end())
         throw std::invalid_argument(
             "spec.model is not in uarch::all_models()");
       w.value(static_cast<std::uint64_t>(it - models.begin()));
     },
     [](RunSpec& s, const JsonValue& v, const char* n) {
       try {
         s.model = cpu_model(v.as_int<std::size_t>());
       } catch (const std::invalid_argument& e) {
         throw std::invalid_argument(std::string("field '") + n + "' " +
                                     e.what());
       }
     },
     [](RunSpec& s, std::string_view t) {
       s.model = cpu_model(stats::parse_as<std::size_t>(t));
     }},
    plain<&RunSpec::trials>("trials", "trials", "N", "trials in the run"),
    plain<&RunSpec::base_seed>("seed", "seed", "S",
                               "base seed; trial i runs on trial_seed(S, i)"),
    {"noise", "noise", Arity::kValue, "PROFILE",
     "interference preset: off, quiet, desktop, noisy-server",
     [](JsonWriter& w, const RunSpec& s) {
       check_preset(s.noise);
       w.value(s.noise.name);
     },
     [](RunSpec& s, const JsonValue& v, const char* n) {
       set_noise(s, json_read<std::string>(v, n));
     },
     [](RunSpec& s, std::string_view t) { set_noise(s, std::string(t)); }},
    {"noise_seed", "noise-seed", Arity::kValue, "S", "noise stream seed",
     [](JsonWriter& w, const RunSpec& s) { w.value(s.noise.seed); },
     [](RunSpec& s, const JsonValue& v, const char* n) {
       s.noise.seed = json_read<std::uint64_t>(v, n);
     },
     [](RunSpec& s, std::string_view t) {
       s.noise.seed = stats::parse_as<std::uint64_t>(t);
     }},
    // The defense stack in the defense::parse() grammar ("kpti",
    // "window:depth=8"): an array on the wire, one entry per flag on a
    // command line. Unknown names surface through runner::validate(),
    // keeping the registry's message contract.
    {"defenses", "defense", Arity::kRepeat, "SPEC",
     "defense stack entry, name[:key=value]... (whisper_cli defenses)",
     [](JsonWriter& w, const RunSpec& s) {
       w.begin_array();
       for (const defense::DefenseSpec& d : s.defenses)
         w.value(defense::format(d));
       w.end_array();
     },
     [](RunSpec& s, const JsonValue& v, const char* n) {
       if (!v.is_array())
         throw std::invalid_argument(std::string("field '") + n +
                                     "' must be an array of strings");
       s.defenses.clear();
       for (const JsonValue& d : v.array)
         s.defenses.push_back(defense::parse(json_read<std::string>(d, n)));
     },
     [](RunSpec& s, std::string_view t) {
       s.defenses.push_back(defense::parse(std::string(t)));
     }},
    plain<&RunSpec::docker>("docker", "docker", "", "victim in a container"),
    plain<&RunSpec::batches>("batches", "batches", "N",
                             "argmax batches per byte (kaslr: sweep rounds)"),
    plain<&RunSpec::payload_bytes>("payload_bytes", "bytes", "N",
                                   "payload bytes per channel trial"),
    plain<&RunSpec::payload_seed>("payload_seed", "payload-seed", "S",
                                  "payload RNG seed"),
    plain<&RunSpec::adaptive>("adaptive", "adaptive", "",
                              "escalate batches up to the confidence"),
    plain<&RunSpec::confidence_threshold>(
        "confidence_threshold", "confidence", "C", "adaptive target in [0, 1]"),
    plain<&RunSpec::batch_budget>("batch_budget", "budget", "N",
                                  "adaptive batch budget (0 = 8x initial)"),
    plain<&RunSpec::reuse_machine>("reuse_machine", "reuse-machine", "",
                                   "reset pooled machines between trials"),
    plain<&RunSpec::fast_forward>("fast_forward", "fast-forward", "",
                                  "skip provably inert cycles (default)"),
    plain<&RunSpec::retries>("retries", "retries", "R",
                             "extra attempts per failed trial"),
    plain<&RunSpec::trial_cycle_budget>("trial_cycle_budget",
                                        "trial-cycle-budget", "C",
                                        "cycle cap per attempt (0 = off)"),
    plain<&RunSpec::trial_wall_budget>("trial_wall_budget",
                                       "trial-wall-budget", "SECS",
                                       "host watchdog per attempt (0 = off)"),
    plain<&RunSpec::verify_reset>("verify_reset", "verify-reset", "",
                                  "digest-check machines after reset()"),
    plain<&RunSpec::fault_plan>("fault_plan", "fault-plan", "PLAN",
                                "seeded fault injection (src/fault/fault.h)"),
};

}  // namespace

std::span<const SpecField> spec_fields() { return kFields; }

const SpecField* find_spec_field(std::string_view name) {
  for (const SpecField& f : kFields)
    if (name == f.name) return &f;
  return nullptr;
}

void add_flag(stats::Flags& flags, RunSpec& spec, std::string_view field,
              std::string flag, std::string help) {
  const SpecField* f = find_spec_field(field);
  if (f == nullptr)
    throw std::logic_error("no RunSpec field '" + std::string(field) + "'");
  const char* toggled =
      std::string_view(flag).starts_with("no-") ? "false" : "true";
  flags.add(flag.empty() ? f->flag : std::move(flag), f->arity,
            f->arity == Arity::kToggle ? "" : f->metavar,
            help.empty() ? f->help : std::move(help),
            [&spec, f, toggled](std::string_view t) {
              f->parse(spec, f->arity == Arity::kToggle ? toggled : t);
            });
}

}  // namespace whisper::runner

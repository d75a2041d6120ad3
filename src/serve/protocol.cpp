#include "serve/protocol.h"

#include <algorithm>
#include <concepts>
#include <iterator>
#include <limits>
#include <optional>
#include <type_traits>

#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "noise/noise.h"
#include "runner/json_writer.h"
#include "stats/json.h"
#include "uarch/config.h"

namespace whisper::serve {

using stats::JsonValue;
using stats::JsonWriter;

// --- Field readers ---------------------------------------------------------

namespace {

JsonValue parse_json(const std::string& line) {
  try {
    return stats::json_parse(line);
  } catch (const stats::JsonError& e) {
    throw ProtocolError(e.what());
  }
}

[[noreturn]] void bad_field(const char* field, const std::string& want) {
  throw ProtocolError(std::string("field '") + field + "' must be " + want);
}

/// The one checked integer read of the wire: exact, in [lo, hi], never a
/// cast of a double (so "trials":1e10 or "seed":1e30 is refused).
template <std::integral T>
T want_int(const JsonValue& v, const char* field, T lo = 0,
           T hi = std::numeric_limits<T>::max()) {
  if (const std::optional<T> n = v.as_int<T>(lo, hi)) return *n;
  bad_field(field, "an integer in " + std::to_string(lo) + ".." +
                       std::to_string(hi));
}

/// Typed read of one field; integers go through want_int() with lo = 0.
template <typename T>
T want(const JsonValue& v, const char* field) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) bad_field(field, "a boolean");
    return v.boolean;
  } else if constexpr (std::is_integral_v<T>) {
    return want_int<T>(v, field);
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number()) bad_field(field, "a number");
    return v.number;
  } else {
    if (!v.is_string()) bad_field(field, "a string");
    return v.string;
  }
}

const JsonValue& required(const JsonValue& obj, const char* field) {
  const JsonValue* v = obj.get(field);
  if (v == nullptr)
    throw ProtocolError(std::string("missing field '") + field + "'");
  return *v;
}

/// want<T>() of a required member of `obj`.
template <typename T>
T member(const JsonValue& obj, const char* field) {
  return want<T>(required(obj, field), field);
}

std::string join_verbs() {
  std::string out;
  for (const char* v : kVerbs) {
    if (!out.empty()) out += ", ";
    out += v;
  }
  return out;
}

// --- The run-request field table -------------------------------------------
// One row per run-request member, in wire order: its name, how
// run_request_line() spells it, and how parse_request() applies it. A
// member with no row is an error on decode — a typoed "trails" must not
// silently run 1 trial.

struct RunField {
  const char* name;
  void (*encode)(JsonWriter& w, const Request& req);
  void (*decode)(Request& req, const JsonValue& v, const char* name);
};

template <typename T>
void put(JsonWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, double>)
    w.exact(v);  // requests are inputs: reconstruct them bit for bit
  else
    w.value(v);
}

/// A row for a RunSpec member carried as-is.
template <auto M>
constexpr RunField spec_field(const char* name) {
  return {name, [](JsonWriter& w, const Request& r) { put(w, r.spec.*M); },
          [](Request& r, const JsonValue& v, const char* n) {
            r.spec.*M = want<std::remove_cvref_t<decltype(r.spec.*M)>>(v, n);
          }};
}

using runner::RunSpec;

const RunField kRunFields[] = {
    spec_field<&RunSpec::attack>("attack"),
    // Same convention as whisper_cli --cpu: an index into all_models().
    {"cpu",
     [](JsonWriter& w, const Request& r) {
       const auto models = uarch::all_models();
       const auto it = std::find(models.begin(), models.end(), r.spec.model);
       if (it == models.end())
         throw std::invalid_argument(
             "run request: spec.model is not in uarch::all_models()");
       w.value(static_cast<std::uint64_t>(it - models.begin()));
     },
     [](Request& r, const JsonValue& v, const char* n) {
       const auto models = uarch::all_models();
       const std::optional<std::size_t> i = v.as_int<std::size_t>();
       if (!i || *i >= models.size())
         throw ProtocolError(std::string("field '") + n +
                             "' out of range (0.." +
                             std::to_string(models.size() - 1) + ")");
       r.spec.model = models[*i];
     }},
    spec_field<&RunSpec::trials>("trials"),
    // Shard window start (see Request::trial_first): a request member, not
    // a RunSpec knob.
    {"trial_first",
     [](JsonWriter& w, const Request& r) { w.value(r.trial_first); },
     [](Request& r, const JsonValue& v, const char* n) {
       r.trial_first = want<std::uint64_t>(v, n);
     }},
    spec_field<&RunSpec::base_seed>("seed"),
    // A named preset; its seed travels separately as "noise_seed".
    {"noise",
     [](JsonWriter& w, const Request& r) { w.value(r.spec.noise.name); },
     [](Request& r, const JsonValue& v, const char* n) {
       const std::string name = want<std::string>(v, n);
       const auto profile = noise::NoiseProfile::by_name(name);
       if (!profile) {
         std::string known;
         for (const auto& p : noise::NoiseProfile::preset_names()) {
           if (!known.empty()) known += ", ";
           known += p;
         }
         throw ProtocolError("unknown noise preset '" + name +
                             "' (presets: " + known + ")");
       }
       const std::uint64_t keep_seed = r.spec.noise.seed;
       r.spec.noise = *profile;
       if (keep_seed != 0) r.spec.noise.seed = keep_seed;
     }},
    {"noise_seed",
     [](JsonWriter& w, const Request& r) { w.value(r.spec.noise.seed); },
     [](Request& r, const JsonValue& v, const char* n) {
       r.spec.noise.seed = want<std::uint64_t>(v, n);
     }},
    // The defense stack: an array of defense::parse() strings ("kpti",
    // "window:depth=8"). Grammar errors become protocol errors here;
    // unknown names surface through runner::validate() on the server,
    // keeping the registry's message contract.
    {"defenses",
     [](JsonWriter& w, const Request& r) {
       w.begin_array();
       for (const defense::DefenseSpec& d : r.spec.defenses)
         w.value(defense::format(d));
       w.end_array();
     },
     [](Request& r, const JsonValue& v, const char* n) {
       if (!v.is_array()) bad_field(n, "an array of strings");
       r.spec.defenses.clear();
       for (const JsonValue& d : v.array) {
         try {
           r.spec.defenses.push_back(defense::parse(want<std::string>(d, n)));
         } catch (const std::invalid_argument& e) {
           throw ProtocolError(e.what());
         }
       }
     }},
    spec_field<&RunSpec::docker>("docker"),
    spec_field<&RunSpec::batches>("batches"),
    spec_field<&RunSpec::payload_bytes>("payload_bytes"),
    spec_field<&RunSpec::payload_seed>("payload_seed"),
    spec_field<&RunSpec::adaptive>("adaptive"),
    spec_field<&RunSpec::confidence_threshold>("confidence_threshold"),
    spec_field<&RunSpec::batch_budget>("batch_budget"),
    spec_field<&RunSpec::reuse_machine>("reuse_machine"),
    spec_field<&RunSpec::fast_forward>("fast_forward"),
    spec_field<&RunSpec::retries>("retries"),
    spec_field<&RunSpec::trial_cycle_budget>("trial_cycle_budget"),
    spec_field<&RunSpec::trial_wall_budget>("trial_wall_budget"),
    spec_field<&RunSpec::verify_reset>("verify_reset"),
    spec_field<&RunSpec::fault_plan>("fault_plan"),
};

}  // namespace

// --- Requests --------------------------------------------------------------

Request parse_request(const std::string& line) {
  if (line.size() > kMaxRequestBytes)
    throw ProtocolError("request line exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes (got " +
                        std::to_string(line.size()) + ")");
  const JsonValue doc = parse_json(line);
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");

  Request req;
  const JsonValue* id = doc.get("id");
  if (!id) throw ProtocolError("request missing numeric 'id'");
  req.id = want<std::uint64_t>(*id, "id");
  if (req.id == 0)
    throw ProtocolError("field 'id' must be positive (0 is reserved for "
                        "unparseable requests)");

  const JsonValue* verb = doc.get("verb");
  if (!verb) throw ProtocolError("request missing 'verb'");
  req.verb = want<std::string>(*verb, "verb");
  bool known = false;
  for (const char* v : kVerbs)
    if (req.verb == v) known = true;
  if (!known)
    throw ProtocolError("unknown verb '" + req.verb +
                        "' (verbs: " + join_verbs() + ")");

  for (const auto& [key, v] : doc.object) {
    if (key == "id" || key == "verb") continue;
    if (req.verb != "run")
      throw ProtocolError("field '" + key + "' not allowed with verb '" +
                          req.verb + "'");
    const auto row = std::find_if(
        std::begin(kRunFields), std::end(kRunFields),
        [&key](const RunField& f) { return key == f.name; });
    if (row == std::end(kRunFields))
      throw ProtocolError("unknown field '" + key + "' in run request");
    row->decode(req, v, row->name);
  }
  // The window [trial_first, trial_first + trials) must not wrap.
  if (req.trial_first > std::numeric_limits<std::uint64_t>::max() -
                            static_cast<std::uint64_t>(req.spec.trials))
    throw ProtocolError("field 'trial_first' + trials exceeds 2^64 - 1");
  return req;
}

std::string run_request_line(const Request& req) {
  JsonWriter w;
  w.begin_object();
  w.field("id", req.id);
  w.field("verb", "run");
  for (const RunField& f : kRunFields) {
    w.key(f.name);
    f.encode(w, req);
  }
  w.end_object();
  return w.str();
}

// --- Response writers ------------------------------------------------------

namespace {

void head(stats::JsonWriter& w, std::uint64_t id, const char* type) {
  w.begin_object();
  w.field("id", id);
  w.field("type", type);
}

}  // namespace

std::string response_trial(std::uint64_t id, std::size_t index,
                           const runner::ScheduledTrial& t) {
  stats::JsonWriter w;
  head(w, id, "trial");
  w.field("index", static_cast<std::uint64_t>(index));
  // The trajectory's "trials_detail" record (runner::write_trial_record),
  // minus anything non-deterministic across worker counts (there is
  // nothing: invariant 8 keeps pool identity out of results, and no
  // wall-clock is emitted).
  runner::write_trial_record(w, t.result, &t.outcome);
  w.field("tote_total", t.result.tote.total());
  w.end_object();
  return w.str();
}

runner::ScheduledTrial decode_trial(const std::string& line) {
  const JsonValue doc = parse_json(line);
  if (member<std::string>(doc, "type") != "trial")
    throw ProtocolError("not a trial response");
  runner::ScheduledTrial t;
  t.outcome.ok = member<bool>(doc, "ok");
  t.outcome.attempts = member<int>(doc, "attempts");
  t.outcome.quarantined = member<bool>(doc, "quarantined");
  const JsonValue& errors = required(doc, "errors");
  if (!errors.is_array()) bad_field("errors", "an array of objects");
  for (const JsonValue& e : errors.array) {
    runner::TrialError err;
    const std::string kind = member<std::string>(e, "kind");
    std::size_t k = 0;
    while (k < runner::kNumTrialErrorKinds &&
           kind != runner::to_string(static_cast<runner::TrialErrorKind>(k)))
      ++k;
    if (k == runner::kNumTrialErrorKinds)
      throw ProtocolError("unknown trial error kind '" + kind + "'");
    err.kind = static_cast<runner::TrialErrorKind>(k);
    err.attempt = member<int>(e, "attempt");
    err.what = member<std::string>(e, "what");
    t.outcome.errors.push_back(std::move(err));
  }
  runner::TrialResult& r = t.result;
  r.seed = member<std::uint64_t>(doc, "seed");
  r.success = member<bool>(doc, "success");
  r.cycles = member<std::uint64_t>(doc, "cycles");
  r.seconds = member<double>(doc, "seconds");
  r.probes = member<std::size_t>(doc, "probes");
  r.bytes = member<std::size_t>(doc, "bytes");
  r.byte_errors = member<std::size_t>(doc, "byte_errors");
  r.found_slot = want_int<int>(required(doc, "found_slot"), "found_slot",
                               std::numeric_limits<int>::min());
  r.confidence = member<double>(doc, "confidence");
  r.gave_up = member<std::size_t>(doc, "gave_up");
  return t;
}

std::string response_done(std::uint64_t id, const runner::RunResult& merged) {
  stats::JsonWriter w;
  head(w, id, "done");
  w.field("attack", merged.spec.attack);
  w.field("trials", static_cast<std::uint64_t>(merged.trials.size()));
  w.field("successes", static_cast<std::uint64_t>(merged.successes));
  w.field("completed", static_cast<std::uint64_t>(merged.completed));
  w.field("failed", static_cast<std::uint64_t>(merged.failed));
  w.field("retried", static_cast<std::uint64_t>(merged.retried));
  w.field("quarantined", static_cast<std::uint64_t>(merged.quarantined));
  w.field("total_attempts", static_cast<std::uint64_t>(merged.total_attempts));
  w.field("total_probes", static_cast<std::uint64_t>(merged.total_probes));
  w.field("total_bytes", static_cast<std::uint64_t>(merged.total_bytes));
  w.field("total_byte_errors",
          static_cast<std::uint64_t>(merged.total_byte_errors));
  w.key("errors");
  w.begin_object();
  for (std::size_t k = 0; k < runner::kNumTrialErrorKinds; ++k)
    w.field(runner::to_string(static_cast<runner::TrialErrorKind>(k)),
            static_cast<std::uint64_t>(merged.error_counts[k]));
  w.end_object();
  w.end_object();
  return w.str();
}

std::string response_error(std::uint64_t id, const std::string& message) {
  stats::JsonWriter w;
  head(w, id, "error");
  w.field("error", message);
  w.end_object();
  return w.str();
}

std::string response_pong(std::uint64_t id) {
  stats::JsonWriter w;
  head(w, id, "pong");
  w.end_object();
  return w.str();
}

std::string response_attacks(std::uint64_t id) {
  stats::JsonWriter w;
  head(w, id, "attacks");
  w.key("attacks");
  w.begin_array();
  for (const std::string& name : core::attack_names()) w.value(name);
  w.end_array();
  // The defense grid axis, appended after the attacks so pre-defense
  // clients keep parsing: name, docs, and declared parameters with their
  // defaults — everything needed to spell a "defenses" run field without
  // recompiling. Key order is fixed (invariant 11).
  w.key("defenses");
  w.begin_array();
  for (const defense::DefenseInfo& d : defense::registry()) {
    w.begin_object();
    w.field("name", d.name);
    w.field("description", d.description);
    w.key("params");
    w.begin_array();
    for (const defense::DefenseParamInfo& p : d.params) {
      w.begin_object();
      w.field("name", p.name);
      w.field("default", p.default_value);
      w.field("description", p.description);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string response_metrics(std::uint64_t id,
                             const std::string& metrics_json) {
  stats::JsonWriter w;
  head(w, id, "metrics");
  w.end_object();
  // Splice the registry document in as the last member; the registry's
  // to_json() is already a complete, deterministic object.
  std::string out = w.str();
  out.pop_back();  // trailing '}'
  out += ",\"metrics\":";
  out += metrics_json;
  out += "}";
  return out;
}

std::string response_bye(std::uint64_t id) {
  stats::JsonWriter w;
  head(w, id, "bye");
  w.end_object();
  return w.str();
}

}  // namespace whisper::serve

#include "serve/protocol.h"

#include <limits>
#include <string_view>

#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "runner/json_writer.h"
#include "runner/spec_schema.h"
#include "stats/json.h"

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

std::string join_verbs() {
  std::string out;
  for (const char* v : kVerbs) {
    if (!out.empty()) out += ", ";
    out += v;
  }
  return out;
}

// A run request's members are the RunSpec schema's rows
// (runner/spec_schema.h), in its order, with the shard window start
// "trial_first" (a Request member, not a RunSpec knob) after "trials". A
// member with no row is an error: a typoed "trails" must not silently run
// 1 trial. parse_request() and decode_trial() rethrow the runner's
// std::invalid_argument as a ProtocolError.

}  // namespace

// --- Requests --------------------------------------------------------------

Request parse_request(const std::string& line) try {
  if (line.size() > kMaxRequestBytes)
    throw ProtocolError("request line exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes (got " +
                        std::to_string(line.size()) + ")");
  const JsonValue doc = parse_json(line);
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");

  Request req;
  const JsonValue* id = doc.get("id");
  if (!id) throw ProtocolError("request missing numeric 'id'");
  req.id = runner::json_read<std::uint64_t>(*id, "id");
  if (req.id == 0)
    throw ProtocolError("field 'id' must be positive (0 is reserved for "
                        "unparseable requests)");

  const JsonValue* verb = doc.get("verb");
  if (!verb) throw ProtocolError("request missing 'verb'");
  req.verb = runner::json_read<std::string>(*verb, "verb");
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
    if (key == "trial_first") {
      req.trial_first = runner::json_read<std::uint64_t>(v, "trial_first");
      continue;
    }
    const runner::SpecField* row = runner::find_spec_field(key);
    if (row == nullptr)
      throw ProtocolError("unknown field '" + key + "' in run request");
    row->decode(req.spec, v, row->name);
  }
  // The window [trial_first, trial_first + trials) must not wrap.
  if (req.trial_first > std::numeric_limits<std::uint64_t>::max() -
                            static_cast<std::uint64_t>(req.spec.trials))
    throw ProtocolError("field 'trial_first' + trials exceeds 2^64 - 1");
  return req;
} catch (const std::invalid_argument& e) {
  throw ProtocolError(e.what());
}

std::string run_request_line(const Request& req) {
  JsonWriter w;
  w.begin_object();
  w.field("id", req.id);
  w.field("verb", "run");
  for (const runner::SpecField& f : runner::spec_fields()) {
    w.key(f.name);
    f.encode(w, req.spec);
    if (f.name == std::string_view("trials"))
      w.field("trial_first", req.trial_first);
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
  // wall-clock is emitted). decode_trial() reads it back by the same
  // field table.
  runner::write_trial_record(w, t.result, &t.outcome);
  w.field("tote_total", t.result.tote.total());
  w.end_object();
  return w.str();
}

runner::ScheduledTrial decode_trial(const std::string& line) try {
  const JsonValue doc = parse_json(line);
  const JsonValue* type = doc.get("type");
  if (type == nullptr || !type->is_string() || type->string != "trial")
    throw ProtocolError("not a trial response");
  return runner::read_trial_record(doc);
} catch (const std::invalid_argument& e) {
  throw ProtocolError(e.what());
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

std::string response_pong(std::uint64_t id, int workers) {
  stats::JsonWriter w;
  head(w, id, "pong");
  w.field("workers", static_cast<std::uint64_t>(workers));
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

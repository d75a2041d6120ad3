// The whisper_serve wire protocol: newline-framed JSON, both directions.
//
// Requests (one JSON object per line):
//   {"id":1,"verb":"run","attack":"cc","trials":4,"seed":7,...}
//   {"id":2,"verb":"ping"}
//   {"id":3,"verb":"list"}        — registered attack + defense names
//   {"id":4,"verb":"metrics"}     — server MetricsRegistry + pool gauges
//   {"id":5,"verb":"shutdown"}    — ask the daemon to exit
//
// Responses (one JSON object per line, "id" echoes the request):
//   {"id":1,"type":"trial","index":0,...}   one per trial, index order
//   {"id":1,"type":"done",...}              terminates a run's stream
//   {"id":2,"type":"pong"}
//   {"id":3,"type":"attacks","attacks":[...],"defenses":[...]}
//   {"id":4,"type":"metrics","metrics":{...}}
//   {"id":5,"type":"bye"}
//   {"id":N,"type":"error","error":"..."}   any failure (id 0 when the
//                                           request line didn't parse)
//
// Determinism contract (invariant 11, docs/ARCHITECTURE.md): no response
// line carries wall-clock time, worker identity, or pool state — a "run"
// response stream is a pure function of the request, so the same request
// line yields byte-identical responses whatever the daemon's --jobs or
// client interleaving. Wall-clock lives in the metrics verb and
// BENCH_serve.json only.
//
// Lines are read with stats::json_parse() (nesting-capped, exact 64-bit
// integers) and written with stats::JsonWriter. A run request's fields are
// the rows of the RunSpec schema (runner/spec_schema.h), which drive both
// directions: run_request_line() encodes, parse_request() decodes, and
// every spec the wire can carry round-trips byte for byte. decode_trial()
// is likewise the inverse of response_trial(), so a client folds received
// trials with the runner's own runner::fold().
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "runner/runner.h"

namespace whisper::serve {

/// A request the server refuses: malformed JSON, schema violations,
/// oversized lines. The message goes straight into the error response.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("serve: " + what) {}
};

// --- Requests --------------------------------------------------------------

/// Every verb the daemon understands, in documentation order.
/// scripts/check_docs.sh (check 9) greps this array and demands each verb
/// appear in docs/REPRODUCING.md.
inline constexpr const char* kVerbs[] = {
    "run", "ping", "list", "metrics", "shutdown",
};

/// Request lines longer than this are rejected before parsing (error
/// response with id 0) so a garbage client cannot balloon server memory.
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;

struct Request {
  std::uint64_t id = 0;
  std::string verb;
  /// Fully-populated spec for verb == "run"; defaulted otherwise.
  runner::RunSpec spec;
  /// Absolute index of the first trial this run request covers ("run"
  /// only; default 0). A distributed sweep shards one logical run into
  /// requests of spec.trials trials starting here — the server executes
  /// trials [trial_first, trial_first + trials) of the SAME seed/payload/
  /// fault schedule a local runner::run would, so response "index" fields
  /// are absolute and a merge-by-index is byte-identical (invariant 13).
  /// Not a RunSpec field: the spec describes the whole run, this picks
  /// the window.
  std::uint64_t trial_first = 0;
};

/// Parse one request line into a Request. Enforces kMaxRequestBytes, the
/// JSON grammar, the verb set, and the run-spec field schema (unknown
/// fields are errors — a typoed knob must not silently run the default;
/// integers must be exact and in their field's range, and the shard
/// window must not wrap past 2^64 - 1).
/// Does NOT call runner::validate(): the server does, so attack/fault-plan
/// diagnostics keep the runner's message contract ("runner: unknown attack
/// 'x' (registered: ...)"). Throws ProtocolError.
[[nodiscard]] Request parse_request(const std::string& line);

/// The "run" request line for `req` (its verb is ignored): every run field
/// spelled explicitly in table order, doubles with %.17g, so
/// parse_request() rebuilds the same Request and re-encoding it gives the
/// same bytes. req.spec.trials is the window size. Throws
/// std::invalid_argument when req.spec.model is not in uarch::all_models().
[[nodiscard]] std::string run_request_line(const Request& req);

// --- Responses -------------------------------------------------------------
// All writers return a complete line (no trailing newline; transports add
// framing) with fixed key order and formatting — these strings ARE the
// byte-identity surface.

[[nodiscard]] std::string response_trial(std::uint64_t id, std::size_t index,
                                         const runner::ScheduledTrial& t);
/// The inverse of response_trial() for every field a fold reads: the
/// outcome, the errors and the result scalars. The ToTE histogram, PMU
/// deltas and event log do not cross the wire, so they come back empty.
/// Throws ProtocolError on a line that is not a well-formed trial response.
[[nodiscard]] runner::ScheduledTrial decode_trial(const std::string& line);
[[nodiscard]] std::string response_done(std::uint64_t id,
                                        const runner::RunResult& merged);
[[nodiscard]] std::string response_error(std::uint64_t id,
                                         const std::string& message);
[[nodiscard]] std::string response_pong(std::uint64_t id);
[[nodiscard]] std::string response_attacks(std::uint64_t id);
/// `metrics_json` must be a complete JSON object (MetricsRegistry::to_json)
/// — it is spliced, not escaped.
[[nodiscard]] std::string response_metrics(std::uint64_t id,
                                           const std::string& metrics_json);
[[nodiscard]] std::string response_bye(std::uint64_t id);

}  // namespace whisper::serve

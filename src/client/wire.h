// Client-side wire helpers: spell a RunSpec shard as a run-request line,
// and normalize response lines into the canonical form invariant 13 is
// stated over.
//
// The canonical form of a distributed sweep is the response stream a
// single-process runner::run would produce, with every "id" rewritten to
// 0 (request ids are routing, not results): one response_trial(0, i, ...)
// line per trial in index order, then one response_done(0, merged) line.
// canonical_trial_lines()/canonical_done_line() build that reference from
// a local RunResult. A SweepClient builds the same bytes from the lines it
// gathered off N endpoints: normalize_id() on each trial line, and the done
// line from runner::fold() over serve::decode_trial() of every line — the
// runner's own merge, not a mirror of it. Equality of the two is the
// invariant.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/runner.h"

namespace whisper::client {

/// Serialize the shard [trial_first, trial_first + trials) of `spec` as a
/// whisper_serve run-request line (serve::run_request_line()). Lossless
/// for everything the wire can carry, 64-bit seeds and doubles included;
/// throws std::invalid_argument for specs it cannot represent
/// (collect_trace, a noise profile that is not a named preset, a model
/// outside uarch::all_models()) — those must fail loudly, not silently run
/// different physics on the server.
[[nodiscard]] std::string run_request_json(std::uint64_t id,
                                           const runner::RunSpec& spec,
                                           std::uint64_t trial_first,
                                           int trials);

/// Rewrite a response line's leading "id" member to 0. Response writers
/// put "id" first with fixed formatting, so this is a textual prefix
/// rewrite, not a reparse; a line that does not look like a response is
/// returned unchanged.
[[nodiscard]] std::string normalize_id(const std::string& line);

/// The reference side of invariant 13: the canonical per-trial lines and
/// done line of a locally-executed RunResult.
[[nodiscard]] std::vector<std::string> canonical_trial_lines(
    const runner::RunResult& r);
[[nodiscard]] std::string canonical_done_line(const runner::RunResult& r);

}  // namespace whisper::client

// JSON serialisation of runner results — the bench/*.json trajectory format.
//
// The generic writer lives in stats/json.h (shared with the obs exporters);
// this header keeps the runner-specific serialisation of RunResult. The
// output is deterministic (fixed key order, fixed float formatting), so a
// trajectory file is diffable across runs and across --jobs values.
#pragma once

#include <string>

#include "runner/runner.h"
#include "stats/json.h"

namespace whisper::runner {

using JsonWriter = stats::JsonWriter;

/// Serialise a finished run: spec, merged stats, PMU-derived top-down cycle
/// attribution, and the ordered per-trial records (including each trial's
/// ToTE histogram buckets).
[[nodiscard]] std::string to_json(const RunResult& r);

/// The members of one trial record, `ok` through `gave_up`, into an open
/// object: the fault-layer account first (skipped when `outcome` is null),
/// then the result slot. The one spelling shared by the trajectory's
/// "trials_detail" entries and the serve daemon's trial responses.
void write_trial_record(JsonWriter& w, const TrialResult& t,
                        const TrialOutcome* outcome);

/// Write to_json(r) to `path`; returns false (and prints to stderr) on I/O
/// failure.
bool write_json_file(const RunResult& r, const std::string& path);

}  // namespace whisper::runner

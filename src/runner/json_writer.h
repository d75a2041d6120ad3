// JSON serialisation of runner results — the bench/*.json trajectory format.
//
// The generic writer lives in stats/json.h (shared with the obs exporters);
// this header keeps the runner's records on disk and on the wire: the
// RunResult trajectory, the trial record and a grid cell's summary, each
// spelled by one field table. The output is deterministic (fixed key
// order, fixed float formatting), so a trajectory file is diffable across
// runs and across --jobs values.
#pragma once

#include <span>
#include <string>

#include "runner/runner.h"
#include "stats/json.h"

namespace whisper::runner {

using JsonWriter = stats::JsonWriter;

/// Serialise a finished run: spec, merged stats, PMU-derived top-down cycle
/// attribution, and the ordered per-trial records (including each trial's
/// ToTE histogram buckets). The spec object is the RunSpec schema's rows
/// (spec_schema.h): wrapped with an "id" and "verb":"run" it is a run
/// request serve::parse_request() reads back. Throws
/// std::invalid_argument for a spec the schema cannot spell (a noise
/// profile that is not a named preset).
[[nodiscard]] std::string to_json(const RunResult& r);

/// The members of one trial record, `ok` through `gave_up`, into an open
/// object: the fault-layer account first (skipped when `outcome` is null),
/// then the result slot. The one field table behind the trajectory's
/// "trials_detail" entries and the serve daemon's trial responses.
void write_trial_record(JsonWriter& w, const TrialResult& t,
                        const TrialOutcome* outcome);

/// The inverse of write_trial_record() with an outcome, by the same field
/// table. The ToTE histogram, PMU deltas and event log are not record
/// members, so they come back empty. Throws std::invalid_argument naming a
/// missing or mistyped member.
[[nodiscard]] ScheduledTrial read_trial_record(const stats::JsonValue& record);

/// One member of a grid cell's summary of its finished run.
struct CellField {
  const char* name;
  void (*encode)(JsonWriter& w, const RunResult& r);
};

/// The cell-summary members, in the order write_cell_summary() writes them.
[[nodiscard]] std::span<const CellField> cell_fields();

/// Every cell_fields() member of `r` into an open object: what the grid
/// harnesses write after a cell's coordinates.
void write_cell_summary(JsonWriter& w, const RunResult& r);

/// Write to_json(r) to `path`; returns false (and prints to stderr) on I/O
/// failure or a spec to_json() cannot spell.
bool write_json_file(const RunResult& r, const std::string& path);

}  // namespace whisper::runner

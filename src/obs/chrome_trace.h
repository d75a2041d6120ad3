// Chrome trace-event exporter.
//
// Renders a uarch::EventLog as a JSON document loadable in chrome://tracing,
// Perfetto (ui.perfetto.dev) or speedscope: per-instruction lifecycle
// slices, transient-window spans, and instant markers for resteers,
// mispredicts and machine clears. One simulated cycle maps to one
// microsecond of trace time.
//
// Track layout (pid 1, tid = thread * kLaneStride + lane):
//   lane 0        instant events (fetch, mispredict, resteer, clears) and
//                 the transient-window "B"/"E" span pairs — at most one
//                 window is open per thread at a time, so spans on this
//                 track never nest;
//   lane 1..N     per-instruction "X" (complete) slices from alloc to
//                 retire/squash. A slice is placed on the lowest lane whose
//                 previous slice has ended, so slices on one track never
//                 overlap and every track's timestamps are monotone —
//                 tests/test_obs.cpp validates both properties.
//
// The output is deterministic: same EventLog, same bytes.
#pragma once

#include <string>

#include "uarch/trace.h"

namespace whisper::obs {

/// tid spacing between the two SMT threads' lane groups.
inline constexpr int kLaneStride = 100;

struct ChromeTraceOptions {
  std::string process_name = "whisper";
};

/// Render the log as a complete Chrome trace JSON document
/// (object form: {"traceEvents": [...], ...}).
[[nodiscard]] std::string to_chrome_trace(const uarch::EventLog& log,
                                          const ChromeTraceOptions& opt = {});

/// Write to_chrome_trace() to `path`; returns false (and prints to stderr)
/// on I/O failure.
bool write_chrome_trace(const uarch::EventLog& log, const std::string& path,
                        const ChromeTraceOptions& opt = {});

}  // namespace whisper::obs

// One writer for every text output the binaries produce on request
// (--json trajectories, --metrics-out, --trace-out, reports).
#pragma once

#include <string>
#include <string_view>

namespace whisper::stats {

/// Replace the file at `path` with `body`. Checks the open, the write and
/// the close; on any failure prints "cannot write PATH: reason" on stderr
/// and returns false, so the caller can exit non-zero.
bool write_text_file(const std::string& path, std::string_view body);

}  // namespace whisper::stats

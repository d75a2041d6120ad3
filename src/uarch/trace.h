// Pipeline trace: structured per-instruction lifecycle events for
// debugging gadgets, for asserting pipeline behaviour in tests ("was this
// instruction fetched but never retired?") and for the obs layer's
// Chrome-trace exporter and top-down attribution (src/obs).
//
// The core appends TraceRecords to an EventLog attached with
// Core::set_trace(). When detached, every hook compiles down to a branch on
// a null pointer, so an untraced run pays nothing beyond that test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.h"

namespace whisper::uarch {

enum class TraceEvent : std::uint8_t {
  Fetch,         // entered the IDQ (front-end delivery)
  Alloc,         // entered the ROB
  Issue,         // dispatched to an execution port
  Complete,      // result ready
  Retire,        // architecturally committed
  Squash,        // dropped from the ROB on a wrong path (one per entry)
  Mispredict,    // branch resolved against its prediction
  Resteer,       // front end redirected
  SquashYounger, // wrong-path entries dropped (count in `seq`)
  MachineClear,  // fault reached retirement
  SignalRedirect,// suppressed via signal handler
  TsxAbort,      // suppressed via transaction abort
  WindowOpen,    // a deferred-fault transient window opened (faulting exec)
  WindowClose,   // that window ended (machine clear or opener squashed)
};

[[nodiscard]] std::string to_string(TraceEvent e);

struct TraceRecord {
  std::uint64_t cycle = 0;
  int thread = 0;
  TraceEvent event = TraceEvent::Alloc;
  std::uint64_t seq = 0;   // ROB sequence number (or a count, see event)
  std::int32_t pc = -1;    // instruction index (-1 when n/a)
  isa::Opcode op = isa::Opcode::Nop;

  [[nodiscard]] std::string to_string() const;

  bool operator==(const TraceRecord&) const = default;
};

/// The pipeline event sink: every record of a run, in emission order, so
/// the obs exporters can reconstruct full instruction lifecycles and tests
/// can count events. Recording is observability-only — it never feeds back
/// into the simulation, and tests/test_obs.cpp asserts that attaching a log
/// leaves architectural state, PMU counters and retire cycles
/// byte-identical.
class EventLog {
 public:
  void record(const TraceRecord& r) { records_.push_back(r); }

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  void clear() { records_.clear(); }

  /// Append another log's records after this one's. The runner merges
  /// per-trial logs in trial-index order, so a --jobs N trace equals the
  /// sequential one byte for byte.
  void append(const EventLog& other) {
    records_.insert(records_.end(), other.records_.begin(),
                    other.records_.end());
  }

  /// Count events of a given kind (optionally at a specific pc).
  [[nodiscard]] std::size_t count(TraceEvent e, std::int32_t pc = -1) const;

  /// Multi-line dump.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const EventLog&) const = default;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace whisper::uarch

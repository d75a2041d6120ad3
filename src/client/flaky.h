// FlakyConnection: deterministic transport-fault injection for sweeps.
//
// Wraps any serve::Connection the sweep client dialed and applies a
// fault::FaultPlan with the REQUEST ordinal as the plan's coordinate
// (attempt fixed at 0): the i-th request written through this endpoint's
// connections hits the plan points that name trial i. The plan grammar is
// exactly src/fault's — "drop@3", "shortread~80@11", "stall@5" — so every
// recovery path (reconnect, deadline, reassignment) is testable without
// real packet loss, the same way trial faults made retry paths testable
// without real crashes (PR 5).
//
// Kinds and their meaning here:
//   drop       sever the connection instead of writing the request
//   shortread  deliver the next response line truncated, then sever —
//              the client sees a malformed line, the classic torn read
//   stall      reads stop returning data: sleep `stall_ms`, then report
//              kTimeout, which the client's per-request deadline turns
//              into a timed_out + reconnect
// The trial kinds (throw/corrupt/sleep) are rejected: they belong in
// RunSpec::fault_plan, mirrored by runner::validate() rejecting the
// transport kinds there.
//
// The ordinal is a counter the owner passes in and FlakyConnection advances
// on every write, so one plan spans an endpoint's successive connections
// (reconnects do not reset the coordinates).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fault/fault.h"
#include "serve/transport.h"

namespace whisper::client {

class FlakyConnection : public serve::Connection {
 public:
  /// `next_request` is the next request's ordinal; each write_line()
  /// advances it, and it must outlive this connection. Throws
  /// std::invalid_argument if the plan uses a trial-only kind.
  FlakyConnection(std::unique_ptr<serve::Connection> inner,
                  fault::FaultPlan plan, std::uint64_t& next_request,
                  int stall_ms = 50);

  serve::ReadStatus read_line_for(std::string& out, int timeout_ms) override;
  bool write_line(const std::string& line) override;
  void close() override;

 private:
  std::unique_ptr<serve::Connection> inner_;
  fault::FaultPlan plan_;
  std::uint64_t& next_request_;
  int stall_ms_;
  bool stalled_ = false;
  bool shortread_pending_ = false;
};

}  // namespace whisper::client

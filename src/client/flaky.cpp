#include "client/flaky.h"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace whisper::client {

FlakyConnection::FlakyConnection(std::unique_ptr<serve::Connection> inner,
                                 fault::FaultPlan plan,
                                 std::uint64_t& next_request, int stall_ms)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      next_request_(next_request),
      stall_ms_(stall_ms) {
  for (const fault::Kind k :
       {fault::Kind::kThrow, fault::Kind::kCorrupt, fault::Kind::kSleep}) {
    if (plan_.uses(k))
      throw std::invalid_argument(
          std::string("client: flaky plan injects trial fault '") +
          fault::to_string(k) +
          "'; only drop/shortread/stall apply to transports (trial faults "
          "go in RunSpec::fault_plan)");
  }
}

bool FlakyConnection::write_line(const std::string& line) {
  const std::uint64_t request = next_request_++;
  if (plan_.fires(fault::Kind::kDrop, request, 0)) {
    // The connection dies instead of carrying this request; the caller
    // sees exactly what a mid-write RST looks like.
    inner_->close();
    return false;
  }
  if (plan_.fires(fault::Kind::kShortRead, request, 0))
    shortread_pending_ = true;
  if (plan_.fires(fault::Kind::kStall, request, 0)) stalled_ = true;
  return inner_->write_line(line);
}

serve::ReadStatus FlakyConnection::read_line_for(std::string& out,
                                                 int timeout_ms) {
  if (stalled_) {
    // The daemon "stopped responding": burn a bounded slice of the
    // caller's patience, then report the timeout its deadline would have
    // produced. Permanent for this connection — only a reconnect clears it.
    int nap = stall_ms_;
    if (timeout_ms >= 0 && timeout_ms < nap) nap = timeout_ms;
    if (nap > 0) std::this_thread::sleep_for(std::chrono::milliseconds(nap));
    return serve::ReadStatus::kTimeout;
  }
  const serve::ReadStatus st = inner_->read_line_for(out, timeout_ms);
  if (st == serve::ReadStatus::kLine && shortread_pending_) {
    // Torn read: half the line arrives, then the stream dies.
    shortread_pending_ = false;
    out.resize(out.size() / 2);
    inner_->close();
  }
  return st;
}

void FlakyConnection::close() { inner_->close(); }

}  // namespace whisper::client

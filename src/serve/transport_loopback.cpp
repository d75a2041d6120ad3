#include "serve/transport_loopback.h"

#include <chrono>

namespace whisper::serve {

/// One direction of a loopback connection: an unbounded FIFO of lines
/// with socket-like close semantics (drain, then EOF).
class LineChannel {
 public:
  /// Append a line. Returns false (drops the line) once closed.
  bool push(const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      lines_.push_back(line);
    }
    cv_.notify_one();
    return true;
  }

  /// Wait up to `timeout_ms` (< 0 = forever) for the next line. kClosed
  /// only when the channel is closed AND empty — buffered lines are always
  /// delivered first; kTimeout leaves the queue untouched.
  ReadStatus pop_for(std::string& out, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [this] { return closed_ || !lines_.empty(); };
    if (timeout_ms < 0) {
      cv_.wait(lock, ready);
    } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             ready)) {
      return ReadStatus::kTimeout;
    }
    if (lines_.empty()) return ReadStatus::kClosed;  // closed and drained
    out = std::move(lines_.front());
    lines_.pop_front();
    return ReadStatus::kLine;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> lines_;
  bool closed_ = false;
};

LoopbackConnection::LoopbackConnection(std::shared_ptr<LineChannel> in,
                                       std::shared_ptr<LineChannel> out)
    : in_(std::move(in)), out_(std::move(out)) {}

LoopbackConnection::~LoopbackConnection() { close(); }

ReadStatus LoopbackConnection::read_line_for(std::string& out,
                                             int timeout_ms) {
  return in_->pop_for(out, timeout_ms);
}

bool LoopbackConnection::write_line(const std::string& line) {
  return out_->push(line);
}

void LoopbackConnection::close() {
  in_->close();
  out_->close();
}

void LoopbackConnection::close_send() { out_->close(); }

std::unique_ptr<LoopbackClient> LoopbackTransport::connect() {
  auto to_server = std::make_shared<LineChannel>();
  auto to_client = std::make_shared<LineChannel>();
  auto client = std::make_unique<LoopbackClient>(to_client, to_server);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (down_) {
      // Transport already shut down: hand back a dead client instead of
      // blocking or throwing, so racing connects during teardown are
      // harmless.
      client->close();
      return client;
    }
    pending_.push_back(
        std::make_unique<LoopbackConnection>(to_server, to_client));
  }
  cv_.notify_one();
  return client;
}

std::unique_ptr<Connection> LoopbackTransport::accept() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return down_ || !pending_.empty(); });
  if (pending_.empty()) return nullptr;  // shut down with nothing queued
  auto conn = std::move(pending_.front());
  pending_.pop_front();
  return conn;
}

void LoopbackTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    down_ = true;
    // Connections handed to connect() but never accepted would leave the
    // client blocked in recv() forever; closing them delivers EOF.
    for (auto& conn : pending_) conn->close();
    pending_.clear();
  }
  cv_.notify_all();
}

}  // namespace whisper::serve

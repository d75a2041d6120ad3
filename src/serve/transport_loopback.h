// In-process transport: line queues instead of sockets.
//
// LoopbackTransport is the deterministic test double for the serving
// stack. A client side (LoopbackClient) and the server-side Connection
// share a pair of LineChannels; tests and bench/serve_soak connect any
// number of clients without touching the filesystem or file descriptors,
// which keeps the protocol/determinism suites runnable under sandboxes
// and sanitizers.
//
// Close semantics mirror a real stream socket half-close: closing the
// writer end lets the reader drain every line already queued before
// read_line() reports end-of-stream. The soak test's "zero lost
// responses" invariant depends on this.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "serve/transport.h"

namespace whisper::serve {

/// One direction of a loopback connection: an unbounded FIFO of lines
/// with socket-like close semantics (drain, then EOF).
class LineChannel {
 public:
  /// Append a line. Returns false (drops the line) once closed.
  bool push(const std::string& line);

  /// Block for the next line. Returns false only when the channel is
  /// closed AND empty — buffered lines are always delivered first.
  bool pop(std::string& out);

  /// Timed pop: wait up to `timeout_ms` (< 0 = block like pop()). Same
  /// drain-then-EOF close semantics; kTimeout leaves the queue untouched.
  ReadStatus pop_for(std::string& out, int timeout_ms);

  void close();
  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> lines_;
  bool closed_ = false;
};

/// The client's handle to a loopback connection.
class LoopbackClient {
 public:
  /// Send one request line to the server. False once the connection
  /// is closed.
  bool send(const std::string& line);

  /// Block for the next response line. False once the server side has
  /// closed and every buffered response was consumed.
  bool recv(std::string& out);

  /// Timed recv — the loopback spelling of FdConnection::read_line_for(),
  /// so the sweep client's deadlines work identically on both transports.
  ReadStatus recv_for(std::string& out, int timeout_ms);

  /// Half-close: no more requests, but responses still drain.
  void close_send();

  /// Full close of both directions.
  void close();

 private:
  friend class LoopbackTransport;
  std::shared_ptr<LineChannel> to_server_;
  std::shared_ptr<LineChannel> to_client_;
};

/// Transport whose accept() yields connections created by connect().
class LoopbackTransport : public Transport {
 public:
  /// Create a connection pair: the returned client talks to the
  /// Connection that the server's accept() loop will receive next.
  /// Thread-safe. Returns a disconnected client after shutdown()
  /// (send() == false), never blocks.
  [[nodiscard]] std::unique_ptr<LoopbackClient> connect();

  std::unique_ptr<Connection> accept() override;
  void shutdown() override;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Connection>> pending_;
  bool down_ = false;
  std::size_t next_id_ = 0;
};

}  // namespace whisper::serve

// In-process transport: line channels instead of sockets.
//
// LoopbackTransport is the deterministic test double for the serving
// stack. connect() makes a pair of LineChannels and two LoopbackConnections
// over them — one reads what the other writes — and hands one end to the
// caller and the other to the server's accept(). Tests and
// bench/serve_soak connect any number of clients without touching the
// filesystem or file descriptors, which keeps the protocol/determinism
// suites runnable under sandboxes and sanitizers.
//
// Close semantics mirror a real stream socket half-close: closing the
// writer end lets the reader drain every line already queued before its
// read reports end-of-stream. The soak test's "zero lost responses"
// invariant depends on this.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "serve/transport.h"

namespace whisper::serve {

class LineChannel;  // one direction: a FIFO of lines (transport_loopback.cpp)

/// One end of a loopback connection pair. The server's end comes out of
/// accept(); the client's end comes out of connect() and also answers to
/// the client spellings send/recv/recv_for/close_send. Destroying an end
/// closes both directions, so the peer reads EOF once it has drained.
class LoopbackConnection : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<LineChannel> in,
                     std::shared_ptr<LineChannel> out);
  ~LoopbackConnection() override;
  LoopbackConnection(const LoopbackConnection&) = delete;
  LoopbackConnection& operator=(const LoopbackConnection&) = delete;

  ReadStatus read_line_for(std::string& out, int timeout_ms) override;
  bool write_line(const std::string& line) override;
  void close() override;

  /// Half-close: no more lines from this end, but the peer's still drain.
  void close_send();

  bool send(const std::string& line) { return write_line(line); }
  bool recv(std::string& out) { return read_line(out); }
  ReadStatus recv_for(std::string& out, int timeout_ms) {
    return read_line_for(out, timeout_ms);
  }

 private:
  std::shared_ptr<LineChannel> in_;
  std::shared_ptr<LineChannel> out_;
};

/// The end connect() hands a client.
using LoopbackClient = LoopbackConnection;

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
};

}  // namespace whisper::serve

// Pluggable byte transport for the whisper_serve daemon.
//
// The serving stack is transport-agnostic: the protocol is newline-framed
// JSON in both directions (src/serve/protocol.h), so a transport only has
// to move lines. Three transports:
//
//   * LoopbackTransport (transport_loopback.h) — in-process channel pairs;
//     what the tests and bench/serve_soak drive, no sockets, no fds. Both
//     ends of a pair are one class, LoopbackConnection.
//   * UnixSocketTransport and TcpTransport (transport_socket.h) — a
//     SOCK_STREAM unix-domain socket (what examples/whisper_serve binds by
//     default) and TCP on host:port (what turns one daemon into one
//     endpoint of a sweep pool). Both are one listener, SocketTransport,
//     handing out FdConnections (fd_connection.h).
//
// Threading contract:
//   * accept() is called from exactly one thread (the server's accept
//     loop); it blocks until a client connects and returns nullptr once
//     shutdown() has been called.
//   * Connection::read_line_for() (and read_line(), its blocking form) is
//     called from exactly one thread per connection (the server's
//     per-connection reader, or the sweep client's per-endpoint worker).
//   * Connection::write_line() is thread-safe — any worker may stream
//     response lines at any time; each line is written atomically (no
//     interleaving inside a line).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace whisper::serve {

/// Outcome of a timed read. kTimeout leaves the connection (and any
/// partially buffered line) intact — the caller may retry or tear down.
enum class ReadStatus : std::uint8_t { kLine, kTimeout, kClosed };

/// One connected peer: the server's view of a client, or (for dialed
/// connections) the client's view of a daemon.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Block up to `timeout_ms` milliseconds (< 0 = forever) for the next
  /// newline-terminated line (the newline is stripped). kClosed once the
  /// peer has closed and every buffered line has been consumed.
  virtual ReadStatus read_line_for(std::string& out, int timeout_ms) = 0;

  /// The blocking read: false once the peer has closed and every buffered
  /// line has been consumed.
  bool read_line(std::string& out) {
    return read_line_for(out, -1) == ReadStatus::kLine;
  }

  /// Queue one response line (a trailing newline is appended). Thread-safe;
  /// atomic per line. Returns false when the connection is gone.
  virtual bool write_line(const std::string& line) = 0;

  /// Tear the connection down in both directions; unblocks a pending
  /// read. Idempotent.
  virtual void close() = 0;
};

/// A dial that could not produce a live connection: refused, unreachable,
/// nonexistent socket path, or connect timeout. Typed so the sweep client
/// can count it as `unreachable` and back off instead of aborting — a dead
/// endpoint is data, not a crash.
class DialError : public std::runtime_error {
 public:
  explicit DialError(const std::string& what)
      : std::runtime_error("serve: " + what) {}
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Block until the next client connects; nullptr after shutdown().
  virtual std::unique_ptr<Connection> accept() = 0;

  /// Stop accepting: unblock a pending accept() and make every later call
  /// return nullptr. Established connections are unaffected. Idempotent.
  virtual void shutdown() = 0;
};

}  // namespace whisper::serve

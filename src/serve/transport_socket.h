// Stream-socket transports: a unix-domain socket path and TCP host:port.
//
// UnixSocketTransport is what examples/whisper_serve binds by default, so
// a daemon can be driven with nothing fancier than `nc -U` or a short
// python script (see docs/REPRODUCING.md). TcpTransport turns whisper_serve
// from "one box" into one endpoint of a sweep pool: `whisper_serve --listen
// 0.0.0.0:7777` on each machine, `whisper_cli sweep --endpoints
// a:7777,b:7777,c:7777` on the client. The wire bytes are identical to the
// loopback transport (invariant 11 makes the response stream a pure
// function of the request line), so a sweep merged across socket endpoints
// is byte-identical to a local runner::run — invariant 13 builds on
// exactly this.
//
// Both kinds are one listener, SocketTransport: socket → bind → listen,
// an EINTR-safe accept loop handing out FdConnections, and a shutdown()
// that only calls ::shutdown() on the listening fd — which wakes a
// concurrent accept() and refuses later connects — while the fd itself is
// closed by the destructor, after the accept loop has returned, so that
// loop never races a close() or reaches a reused fd number. The unix kind
// adds two steps: it unlinks a stale socket file before bind and its own
// socket file on shutdown. POSIX-only; elsewhere the constructors throw,
// so callers degrade to the loopback transport instead of crashing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/transport.h"

namespace whisper::serve {

/// The listener both socket kinds share (see file comment).
class SocketTransport : public Transport {
 public:
  ~SocketTransport() override;

  std::unique_ptr<Connection> accept() override;
  void shutdown() override;

 protected:
  /// `unlink_path` non-empty is the unix kind's socket file.
  explicit SocketTransport(std::string unlink_path = {});

  /// socket → bind → listen on the `addr_len` bytes at `addr`; called once,
  /// from the derived constructor. Throws std::runtime_error naming `what`.
  void listen_on(int domain, const void* addr, std::size_t addr_len,
                 const std::string& what);

  /// Written only by listen_on() during construction; shutdown() and
  /// accept() just read it, so the accept thread never races a writer.
  int listen_fd_ = -1;

 private:
  std::string unlink_path_;
  std::atomic<bool> shut_down_{false};
};

class UnixSocketTransport : public SocketTransport {
 public:
  /// Bind and listen on `path`. Any stale socket file left by a previous
  /// (crashed) daemon is unlinked first. Throws std::runtime_error when
  /// the socket cannot be created (path too long for sockaddr_un, bind
  /// failure, unsupported platform).
  explicit UnixSocketTransport(const std::string& path);

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Client side: connect to `path` and wrap the fd in a Connection
  /// (read_line ← responses, write_line → requests). Used by
  /// `whisper_serve --request` one-shot mode and the sweep client's unix
  /// endpoints. `timeout_ms` bounds the connect (< 0 = block); the same
  /// knob TcpTransport::dial() takes. Throws DialError — typed, so a
  /// nonexistent or stale socket path is a countable failure, never a
  /// hang — and std::runtime_error for a path too long to encode.
  [[nodiscard]] static std::unique_ptr<Connection> dial(
      const std::string& path, int timeout_ms = -1);

 private:
  std::string path_;
};

class TcpTransport : public SocketTransport {
 public:
  /// Bind and listen on "host:port". Host may be empty (":7777" binds
  /// every interface); port 0 picks an ephemeral port — address()/port()
  /// report the one the kernel chose, which is how tests avoid
  /// hard-coding ports. SO_REUSEADDR is set so a restarted daemon does not
  /// fight TIME_WAIT. Throws std::runtime_error on resolve/bind/listen
  /// failure, and where AF_INET is refused.
  explicit TcpTransport(const std::string& address);

  /// The bound address as "host:port" with the real port filled in.
  [[nodiscard]] const std::string& address() const { return address_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Client side: connect to "host:port" with a bounded connect wait
  /// (`timeout_ms` < 0 = block). Throws DialError on refusal, unreachable
  /// or unresolvable host, or timeout.
  [[nodiscard]] static std::unique_ptr<Connection> dial(
      const std::string& address, int timeout_ms = -1);

 private:
  std::string address_;
  std::uint16_t port_ = 0;
};

}  // namespace whisper::serve

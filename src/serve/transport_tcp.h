// TCP transport: the same newline-framed JSON protocol on host:port.
//
// This is what turns whisper_serve from "one box" into one endpoint of a
// sweep pool: `whisper_serve --listen 0.0.0.0:7777` on each machine,
// `whisper_cli sweep --endpoints a:7777,b:7777,c:7777` on the client. The
// wire bytes are identical to the unix and loopback transports (invariant
// 11 makes the response stream a pure function of the request line), so a
// sweep merged across TCP endpoints is byte-identical to a local
// runner::run — invariant 13 builds on exactly this.
//
// Shares FdConnection with the unix transport: EINTR-safe accept and
// reads, SIGPIPE-free partial-write-safe writes, bounded line length,
// poll()-based read deadlines for the client side. POSIX-only; the
// constructor throws elsewhere (and under sandboxes that forbid AF_INET),
// so callers degrade to loopback/unix instead of crashing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/transport.h"

namespace whisper::serve {

class TcpTransport : public Transport {
 public:
  /// Bind and listen on "host:port". Host may be empty ("``:7777``" and
  /// ":7777" bind every interface); port 0 picks an ephemeral port —
  /// address()/port() report the one the kernel chose, which is how tests
  /// avoid hard-coding ports. SO_REUSEADDR is set so a restarted daemon
  /// does not fight TIME_WAIT. Throws std::runtime_error on resolve/bind/
  /// listen failure.
  explicit TcpTransport(const std::string& address);
  ~TcpTransport() override;

  std::unique_ptr<Connection> accept() override;
  void shutdown() override;

  /// The bound address as "host:port" with the real port filled in.
  [[nodiscard]] const std::string& address() const { return address_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Client side: connect to "host:port" with a bounded connect wait
  /// (`timeout_ms` < 0 = block; same knob as UnixSocketTransport::dial).
  /// Throws DialError on refusal, unreachable host, or timeout.
  [[nodiscard]] static std::unique_ptr<Connection> dial(
      const std::string& address, int timeout_ms = -1);

 private:
  std::string address_;
  std::uint16_t port_ = 0;
  /// Written only by the constructor; shutdown() and accept() just read
  /// it, so the accept thread never races a writer.
  int listen_fd_ = -1;
  std::atomic<bool> shut_down_{false};
  std::size_t next_id_ = 0;
};

}  // namespace whisper::serve

// Sweep endpoints: where a SweepClient dials daemons.
//
// An Endpoint is a dialable address — TCP host:port, unix socket path, or
// an in-process LoopbackTransport (how the tests and bench/dist_soak run
// multi-daemon topologies without sockets). dial() either returns a live
// serve::Connection or throws serve::DialError; the sweep client counts
// the throw as `unreachable` and backs off, so a dead box is accounting,
// not an abort.
//
// KillSwitchEndpoint wraps any endpoint with a deterministic "this box
// just died" lever: kill() makes every later dial refuse and severs the
// connection currently in flight. It exists so the kill-one-daemon-
// mid-sweep schedule of invariant 13 is a scripted test scenario instead
// of a flaky race.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/transport.h"
#include "serve/transport_loopback.h"

namespace whisper::client {

/// A parsed endpoint address. Grammar (whisper_cli sweep --endpoints):
///   tcp:host:port | host:port      TCP
///   unix:/path    | /path          unix-domain socket
struct EndpointSpec {
  enum class Kind : std::uint8_t { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string address;  // "host:port" or socket path
  [[nodiscard]] std::string canonical() const;
};

/// Parse one endpoint (throws std::invalid_argument) or a comma-separated
/// list of them.
[[nodiscard]] EndpointSpec parse_endpoint(const std::string& text);
[[nodiscard]] std::vector<EndpointSpec> parse_endpoint_list(
    const std::string& csv);

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Connect, or throw serve::DialError. `timeout_ms` bounds the connect
  /// (< 0 = block).
  [[nodiscard]] virtual std::unique_ptr<serve::Connection> dial(
      int timeout_ms) = 0;

  /// Stable label for accounting and logs ("tcp:127.0.0.1:7777").
  [[nodiscard]] virtual std::string label() const = 0;
};

/// A socket endpoint (TCP or unix) from its parsed spec.
[[nodiscard]] std::unique_ptr<Endpoint> make_endpoint(const EndpointSpec& spec);

/// In-process endpoint over a LoopbackTransport (which must outlive it).
/// dial() returns the client end of a fresh loopback connection pair.
class LoopbackEndpoint : public Endpoint {
 public:
  explicit LoopbackEndpoint(serve::LoopbackTransport& transport,
                            std::string label = "loopback");
  [[nodiscard]] std::unique_ptr<serve::Connection> dial(
      int timeout_ms) override;
  [[nodiscard]] std::string label() const override;

 private:
  serve::LoopbackTransport& transport_;
  std::string label_;
};

/// Deterministic failure lever around any endpoint (see file comment).
class KillSwitchEndpoint : public Endpoint {
 public:
  explicit KillSwitchEndpoint(std::unique_ptr<Endpoint> inner);

  /// From any thread: refuse all future dials and sever the currently
  /// live connection (its next read reports closed, its writes fail).
  void kill();
  [[nodiscard]] bool killed() const;

  [[nodiscard]] std::unique_ptr<serve::Connection> dial(
      int timeout_ms) override;
  [[nodiscard]] std::string label() const override;

 private:
  std::unique_ptr<Endpoint> inner_;
  mutable std::mutex mu_;
  bool dead_ = false;
  std::weak_ptr<serve::Connection> live_;
};

}  // namespace whisper::client

// SOCK_STREAM unix-domain socket transport for examples/whisper_serve.
//
// Newline-framed JSON over a filesystem socket, so a daemon can be driven
// with nothing fancier than `nc -U` or a short python script (see
// docs/REPRODUCING.md). Gated to POSIX: on other platforms the
// constructor throws and the daemon falls back to loopback-only mode.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "serve/transport.h"

namespace whisper::serve {

class UnixSocketTransport : public Transport {
 public:
  /// Bind and listen on `path`. Any stale socket file left by a previous
  /// (crashed) daemon is unlinked first. Throws std::runtime_error when
  /// the socket cannot be created (path too long for sockaddr_un, bind
  /// failure, unsupported platform).
  explicit UnixSocketTransport(const std::string& path);
  ~UnixSocketTransport() override;

  std::unique_ptr<Connection> accept() override;
  void shutdown() override;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Client-side convenience: connect to `path` and wrap the fd in a
  /// Connection (read_line ← responses, write_line → requests). Used by
  /// `whisper_serve --request` one-shot mode and the sweep client's unix
  /// endpoints. `timeout_ms` bounds the connect (< 0 = block); the same
  /// knob TcpTransport::dial() takes. Throws DialError — typed, so a
  /// nonexistent or stale socket path is a countable failure, never a
  /// hang — and std::runtime_error for a path too long to encode.
  [[nodiscard]] static std::unique_ptr<Connection> dial(
      const std::string& path, int timeout_ms = -1);

 private:
  std::string path_;
  /// Written only by the constructor; shutdown() and accept() just read
  /// it, so the accept thread never races a writer.
  int listen_fd_ = -1;
  std::atomic<bool> shut_down_{false};
  std::size_t next_id_ = 0;
};

}  // namespace whisper::serve

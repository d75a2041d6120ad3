#include "serve/transport_unix.h"

#include <stdexcept>

#include "serve/fd_connection.h"

#if defined(WHISPER_HAVE_FD_CONNECTION)
#define WHISPER_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace whisper::serve {

#if WHISPER_HAVE_UNIX_SOCKETS

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("serve: socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

UnixSocketTransport::UnixSocketTransport(const std::string& path)
    : path_(path) {
  const sockaddr_un addr = make_addr(path);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  ::unlink(path.c_str());  // clear a stale socket from a crashed daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " + path + ": " + err);
  }
}

UnixSocketTransport::~UnixSocketTransport() {
  shutdown();
  // Closed only here, after the accept loop has returned (see
  // TcpTransport's destructor).
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::unique_ptr<Connection> UnixSocketTransport::accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0)
      return std::make_unique<FdConnection>(
          fd, "unix:" + std::to_string(next_id_++));
    if (errno == EINTR) continue;
    return nullptr;  // listen fd shut down or gone
  }
}

void UnixSocketTransport::shutdown() {
  if (listen_fd_ >= 0 && !shut_down_.exchange(true)) {
    // shutdown() on the listening fd unblocks a concurrent accept() and
    // refuses later connects; plain close() alone leaves accept() hanging
    // on Linux. The fd itself is closed by the destructor.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::unlink(path_.c_str());
  }
}

std::unique_ptr<Connection> UnixSocketTransport::dial(const std::string& path,
                                                      int timeout_ms) {
  const sockaddr_un addr = make_addr(path);
  const int fd = dial_fd(AF_UNIX, &addr, sizeof addr, timeout_ms, path);
  return std::make_unique<FdConnection>(fd, "unix:dial");
}

#else  // !WHISPER_HAVE_UNIX_SOCKETS

UnixSocketTransport::UnixSocketTransport(const std::string& path)
    : path_(path) {
  throw std::runtime_error(
      "serve: unix-domain sockets unavailable on this platform; use the "
      "loopback transport");
}

UnixSocketTransport::~UnixSocketTransport() = default;
std::unique_ptr<Connection> UnixSocketTransport::accept() { return nullptr; }
void UnixSocketTransport::shutdown() {}
std::unique_ptr<Connection> UnixSocketTransport::dial(const std::string&,
                                                      int) {
  throw std::runtime_error("serve: unix-domain sockets unavailable");
}

#endif

}  // namespace whisper::serve

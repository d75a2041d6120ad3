#include "serve/transport_socket.h"

#include <optional>
#include <stdexcept>

#include "serve/fd_connection.h"
#include "stats/parse.h"

#if WHISPER_HAVE_FD_CONNECTION
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace whisper::serve {

#if WHISPER_HAVE_FD_CONNECTION

namespace {

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("serve: socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Split "host:port" on the LAST colon (bare "host" is an error; an empty
/// host means "every interface" when listening, loopback when dialing).
HostPort split_host_port(const std::string& address, const char* what) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos)
    throw std::runtime_error(std::string("serve: ") + what +
                             " address must be host:port, got '" + address +
                             "'");
  const std::optional<std::uint16_t> port =
      stats::parse_uint<std::uint16_t>(address.substr(colon + 1));
  if (!port)
    throw std::runtime_error(std::string("serve: ") + what + " port in '" +
                             address + "' must be 0..65535");
  return {address.substr(0, colon), *port};
}

/// Resolve host to an IPv4 sockaddr_in. getaddrinfo handles dotted quads
/// and names alike; AF_INET keeps the address model simple (one socket,
/// one family) — the pool boxes this targets speak IPv4.
sockaddr_in resolve(const std::string& host, std::uint16_t port, bool listen,
                    std::string* canonical) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string name =
      host.empty() ? (listen ? "0.0.0.0" : "127.0.0.1") : host;
  if (::inet_pton(AF_INET, name.c_str(), &addr.sin_addr) != 1) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    if (listen) hints.ai_flags = AI_PASSIVE;
    addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(name.c_str(), nullptr, &hints, &res);
    if (rc != 0 || res == nullptr)
      throw std::runtime_error("serve: cannot resolve host '" + name +
                               "': " + ::gai_strerror(rc));
    addr.sin_addr =
        reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  if (canonical != nullptr) {
    char buf[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof buf);
    *canonical = buf;
  }
  return addr;
}

}  // namespace

SocketTransport::SocketTransport(std::string unlink_path)
    : unlink_path_(std::move(unlink_path)) {}

void SocketTransport::listen_on(int domain, const void* addr,
                                std::size_t addr_len, const std::string& what) {
  listen_fd_ = ::socket(domain, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  const int one = 1;
  // A daemon restarted onto the same port must not lose to TIME_WAIT.
  if (domain == AF_INET)
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  // Clear a stale socket file left by a crashed daemon.
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
  if (::bind(listen_fd_, static_cast<const sockaddr*>(addr),
             static_cast<socklen_t>(addr_len)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " + what + ": " + err);
  }
}

SocketTransport::~SocketTransport() {
  shutdown();
  // Closed only here, after the accept loop has returned (file comment).
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::unique_ptr<Connection> SocketTransport::accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<FdConnection>(fd);
    if (errno == EINTR) continue;
    return nullptr;  // listen fd shut down or gone
  }
}

void SocketTransport::shutdown() {
  // ::shutdown() unblocks a concurrent accept() and refuses later
  // connects; plain close() alone leaves accept() hanging on Linux.
  if (listen_fd_ >= 0 && !shut_down_.exchange(true)) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
  }
}

UnixSocketTransport::UnixSocketTransport(const std::string& path)
    : SocketTransport(path), path_(path) {
  const sockaddr_un addr = unix_addr(path);
  listen_on(AF_UNIX, &addr, sizeof addr, path);
}

std::unique_ptr<Connection> UnixSocketTransport::dial(const std::string& path,
                                                      int timeout_ms) {
  const sockaddr_un addr = unix_addr(path);
  return std::make_unique<FdConnection>(
      dial_fd(AF_UNIX, &addr, sizeof addr, timeout_ms, path));
}

TcpTransport::TcpTransport(const std::string& address) {
  const HostPort hp = split_host_port(address, "listen");
  std::string host;
  const sockaddr_in addr = resolve(hp.host, hp.port, /*listen=*/true, &host);
  listen_on(AF_INET, &addr, sizeof addr, address);
  // Report the port the kernel actually chose (matters for port 0).
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  port_ = ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                        &len) == 0
              ? ntohs(bound.sin_port)
              : hp.port;
  address_ = host + ":" + std::to_string(port_);
}

std::unique_ptr<Connection> TcpTransport::dial(const std::string& address,
                                               int timeout_ms) {
  const HostPort hp = split_host_port(address, "dial");
  sockaddr_in addr{};
  try {
    addr = resolve(hp.host, hp.port, /*listen=*/false, nullptr);
  } catch (const std::runtime_error&) {
    // Resolution failure is a dial failure: typed, countable, retryable.
    throw DialError("cannot resolve '" + address + "'");
  }
  return std::make_unique<FdConnection>(
      dial_fd(AF_INET, &addr, sizeof addr, timeout_ms, address));
}

#else  // !WHISPER_HAVE_FD_CONNECTION

namespace {
[[noreturn]] void unavailable() {
  throw std::runtime_error(
      "serve: sockets unavailable on this platform; use the loopback "
      "transport");
}
}  // namespace

SocketTransport::SocketTransport(std::string unlink_path)
    : unlink_path_(std::move(unlink_path)) {}
SocketTransport::~SocketTransport() = default;
std::unique_ptr<Connection> SocketTransport::accept() { return nullptr; }
void SocketTransport::shutdown() {}
UnixSocketTransport::UnixSocketTransport(const std::string&) { unavailable(); }
std::unique_ptr<Connection> UnixSocketTransport::dial(const std::string&,
                                                      int) {
  unavailable();
}
TcpTransport::TcpTransport(const std::string&) { unavailable(); }
std::unique_ptr<Connection> TcpTransport::dial(const std::string&, int) {
  unavailable();
}

#endif

}  // namespace whisper::serve

#include "serve/transport_tcp.h"

#include <optional>
#include <stdexcept>

#include "serve/fd_connection.h"
#include "stats/parse.h"

#if defined(WHISPER_HAVE_FD_CONNECTION)
#define WHISPER_HAVE_TCP 1
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace whisper::serve {

#if WHISPER_HAVE_TCP

namespace {

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

TcpTransport::TcpTransport(const std::string& address) {
  const HostPort hp = split_host_port(address, "listen");
  std::string host;
  sockaddr_in addr = resolve(hp.host, hp.port, /*listen=*/true, &host);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  const int one = 1;
  // A daemon restarted onto the same port must not lose to TIME_WAIT.
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " + address + ": " + err);
  }
  // Report the port the kernel actually chose (matters for port 0).
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0)
    port_ = ntohs(bound.sin_port);
  else
    port_ = hp.port;
  address_ = host + ":" + std::to_string(port_);
}

TcpTransport::~TcpTransport() {
  shutdown();
  // Closed only here, after the accept loop has returned: a close() under
  // a concurrent accept() would race on the fd and could let the loop's
  // EINTR retry reach a reused fd number.
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::unique_ptr<Connection> TcpTransport::accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0)
      return std::make_unique<FdConnection>(
          fd, "tcp:" + std::to_string(next_id_++));
    if (errno == EINTR) continue;
    return nullptr;  // listen fd shut down or gone
  }
}

void TcpTransport::shutdown() {
  // Same trick as the unix transport: shutdown() unblocks a concurrent
  // accept() and refuses later connects; the fd stays open (and
  // listen_fd_ unwritten) until the destructor.
  if (listen_fd_ >= 0 && !shut_down_.exchange(true))
    ::shutdown(listen_fd_, SHUT_RDWR);
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
  const int fd = dial_fd(AF_INET, &addr, sizeof addr, timeout_ms, address);
  return std::make_unique<FdConnection>(fd, "tcp:dial:" + address);
}

#else  // !WHISPER_HAVE_TCP

TcpTransport::TcpTransport(const std::string&) {
  throw std::runtime_error(
      "serve: TCP sockets unavailable on this platform; use the loopback "
      "transport");
}

TcpTransport::~TcpTransport() = default;
std::unique_ptr<Connection> TcpTransport::accept() { return nullptr; }
void TcpTransport::shutdown() {}
std::unique_ptr<Connection> TcpTransport::dial(const std::string&, int) {
  throw std::runtime_error("serve: TCP sockets unavailable");
}

#endif

}  // namespace whisper::serve

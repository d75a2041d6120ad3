#include "serve/fd_connection.h"

#if WHISPER_HAVE_FD_CONNECTION

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

namespace whisper::serve {

namespace {

#ifndef MSG_NOSIGNAL
// macOS spells SIGPIPE suppression differently; with no send() flag the
// only portable guard is ignoring the signal process-wide, which
// ignore_sigpipe() below does once. Linux — the platform we actually run
// on — has the flag and never takes that path.
#define MSG_NOSIGNAL 0
#define WHISPER_NEED_SIGPIPE_IGNORE 1
#endif

#if defined(WHISPER_NEED_SIGPIPE_IGNORE)
void ignore_sigpipe() {
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}
#else
void ignore_sigpipe() {}
#endif

/// poll() one fd for `events`, retrying EINTR against a deadline.
/// Returns >0 ready, 0 timeout, <0 error.
int poll_fd(int fd, short events, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
  for (;;) {
    int wait = timeout_ms;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      wait = left > 0 ? static_cast<int>(left) : 0;
    }
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int r = ::poll(&p, 1, wait);
    if (r >= 0) return r;
    if (errno != EINTR) return r;
    if (timeout_ms >= 0 && std::chrono::steady_clock::now() >= deadline)
      return 0;
  }
}

}  // namespace

FdConnection::FdConnection(int fd, std::string peer)
    : fd_(fd), peer_(std::move(peer)) {
  ignore_sigpipe();
}

FdConnection::~FdConnection() {
  close();
  ::close(fd_);
}

ReadStatus FdConnection::fill(int timeout_ms) {
  if (timeout_ms >= 0) {
    const int r = poll_fd(fd_, POLLIN, timeout_ms);
    if (r == 0) return ReadStatus::kTimeout;
    if (r < 0) return ReadStatus::kClosed;
  }
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      if (discarding_) {
        // The oversized line's tail: keep only what follows its newline.
        const void* nl = std::memchr(chunk, '\n', static_cast<std::size_t>(n));
        if (nl != nullptr) {
          const char* after = static_cast<const char*>(nl) + 1;
          buf_.append(after, static_cast<std::size_t>(chunk + n - after));
          discarding_ = false;
        }
      } else {
        buf_.append(chunk, static_cast<std::size_t>(n));
      }
      return ReadStatus::kLine;
    }
    if (n < 0 && errno == EINTR) continue;
    return ReadStatus::kClosed;  // EOF or hard error
  }
}

bool FdConnection::read_line(std::string& out) {
  return read_line_for(out, -1) == ReadStatus::kLine;
}

ReadStatus FdConnection::read_line_for(std::string& out, int timeout_ms) {
  out.clear();
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    // Serve lines straight from the buffer while we have any.
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      out = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return ReadStatus::kLine;
    }
    if (!discarding_ && buf_.size() > kMaxLineBytes) {
      // Line too long: hand the truncated head out immediately (the
      // protocol layer refuses it with an attributable error) and drop
      // bytes until the next newline so the stream resynchronizes.
      out = std::move(buf_);
      buf_.clear();
      discarding_ = true;
      return ReadStatus::kLine;
    }
    int wait = timeout_ms;
    if (timeout_ms >= 0) {
      const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      wait = timeout_ms > spent ? static_cast<int>(timeout_ms - spent) : 0;
    }
    const ReadStatus st = fill(wait);
    if (st == ReadStatus::kLine) continue;
    if (st == ReadStatus::kTimeout) return ReadStatus::kTimeout;
    // EOF or error: a final unterminated fragment still counts as a line
    // so a peer that forgot the trailing newline is not ignored.
    if (!buf_.empty() && !discarding_) {
      out = std::move(buf_);
      buf_.clear();
      return ReadStatus::kLine;
    }
    return ReadStatus::kClosed;
  }
}

bool FdConnection::write_line(const std::string& line) {
  // One lock per line keeps concurrent workers' lines from interleaving.
  std::lock_guard<std::mutex> lock(write_mu_);
  if (closed_) return false;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET etc: peer gone, never a signal
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void FdConnection::close() {
  // shutdown() ends both directions and wakes a reader parked in recv() or
  // poll(); the fd itself stays open until the destructor, so a concurrent
  // reader never races a close() or reaches a reused fd number.
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!closed_) {
    closed_ = true;
    ::shutdown(fd_, SHUT_RDWR);
  }
}

std::string FdConnection::peer() const { return peer_; }

int dial_fd(int domain, const void* addr, std::size_t addr_len, int timeout_ms,
            const std::string& what) {
  ignore_sigpipe();
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0)
    throw DialError("socket() failed: " + std::string(std::strerror(errno)));
  const auto refuse = [fd, &what](const std::string& why) -> int {
    ::close(fd);
    throw DialError("cannot connect to " + what + ": " + why);
  };
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    return refuse(std::strerror(errno));
  if (::connect(fd, static_cast<const sockaddr*>(addr),
                static_cast<socklen_t>(addr_len)) != 0) {
    if (errno != EINPROGRESS && errno != EINTR)
      return refuse(std::strerror(errno));
    const int r = poll_fd(fd, POLLOUT, timeout_ms);
    if (r == 0) return refuse("connect timed out");
    if (r < 0) return refuse(std::strerror(errno));
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0)
      return refuse(std::strerror(errno));
    if (err != 0) return refuse(std::strerror(err));
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) return refuse(std::strerror(errno));
  return fd;
}

}  // namespace whisper::serve

#endif  // WHISPER_HAVE_FD_CONNECTION

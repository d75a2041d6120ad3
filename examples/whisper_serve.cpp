// whisper_serve — the attack-as-a-service daemon. `whisper_serve --help`
// prints its flag table.
//
// Daemon mode binds a unix-domain socket (default /tmp/whisper_serve.sock)
// or, with --listen, a TCP host:port — same protocol, same bytes; TCP is
// what makes a daemon one endpoint of a sweep pool (whisper_cli sweep
// --endpoints). The newline-framed JSON protocol of src/serve/protocol.h
// has verbs run, ping, list, metrics, shutdown. Try it with nothing
// fancier than nc:
//
//   whisper_serve --socket /tmp/w.sock &
//   printf '%s\n' '{"id":1,"verb":"run","attack":"cc","trials":2,"seed":7}' |
//     nc -U /tmp/w.sock
//
// --request exits when the request's stream terminates (done/error/pong/
// attacks/metrics/bye). --jobs changes throughput only: response bytes are
// byte-identical for any value (invariant 11, docs/ARCHITECTURE.md).
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport_loopback.h"
#include "serve/transport_tcp.h"
#include "serve/transport_unix.h"
#include "stats/flags.h"

using namespace whisper;

namespace {

/// Is `line` the last response of its request's stream?
bool terminal_response(const std::string& line) {
  for (const char* t : {"\"done\"", "\"error\"", "\"pong\"", "\"attacks\"",
                        "\"metrics\"", "\"bye\""})
    if (line.find(std::string("\"type\":") + t) != std::string::npos)
      return true;
  return false;
}

/// One-shot client: send `request`, print responses until the stream ends.
/// `tcp_address` (from --connect) wins over the unix socket path.
int send_request(const std::string& socket_path, const std::string& tcp_address,
                 const std::string& request) {
  auto conn = tcp_address.empty()
                  ? serve::UnixSocketTransport::dial(socket_path)
                  : serve::TcpTransport::dial(tcp_address);
  if (!conn->write_line(request)) {
    std::fprintf(stderr, "whisper_serve: send failed\n");
    return 1;
  }
  std::string line;
  bool saw_error = false;
  while (conn->read_line(line)) {
    std::printf("%s\n", line.c_str());
    if (line.find("\"type\":\"error\"") != std::string::npos) saw_error = true;
    if (terminal_response(line)) break;
  }
  return saw_error ? 1 : 0;
}

/// Loopback smoke test: no socket, one run request, assert the stream
/// terminates with a done line.
int selftest() {
  serve::LoopbackTransport transport;
  serve::ServerOptions opts;
  opts.jobs = 2;
  serve::Server server(transport, opts);
  server.start();
  auto client = transport.connect();
  client->send(R"({"id":1,"verb":"run","attack":"cc","trials":2,"seed":7})");
  client->close_send();
  std::string line;
  bool done = false;
  while (client->recv(line)) {
    std::printf("%s\n", line.c_str());
    if (line.find("\"type\":\"done\"") != std::string::npos) {
      done = true;
      break;
    }
    if (line.find("\"type\":\"error\"") != std::string::npos) break;
  }
  server.stop();
  if (!done) {
    std::fprintf(stderr, "whisper_serve: selftest failed\n");
    return 1;
  }
  std::puts("selftest ok");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/whisper_serve.sock";
  std::string tcp_listen;
  std::string tcp_connect;
  std::string request;
  bool send_shutdown = false;
  bool self_test = false;
  serve::ServerOptions opts;
  stats::Flags flags(
      "whisper_serve",
      "attack-as-a-service daemon: one JSON object per line; verbs run, "
      "ping, list, metrics,\nshutdown (src/serve/protocol.h; "
      "docs/REPRODUCING.md \"Serving\")");
  flags.value("socket", "PATH",
              "unix-socket address (default /tmp/whisper_serve.sock)",
              socket_path);
  flags.value("listen", "HOST:PORT", "serve TCP instead (port 0: ephemeral)",
              tcp_listen);
  flags.value("jobs", "J", "worker threads (responses are identical for any J)",
              opts.jobs);
  flags.value("pool", "N", "shared machine-pool capacity (default 4)",
              opts.pool_capacity);
  flags.value("request", "JSON", "send one request line, print the responses",
              request);
  flags.toggle("shutdown", "ask the daemon to exit", send_shutdown);
  flags.value("connect", "HOST:PORT",
              "send --request/--shutdown to a TCP daemon", tcp_connect);
  flags.toggle("selftest", "loopback round trip, no socket", self_test);
  flags.parse(argc, argv);
  if (self_test) return selftest();

  try {
    if (flags.seen("request"))
      return send_request(socket_path, tcp_connect, request);
    if (send_shutdown)
      return send_request(socket_path, tcp_connect,
                          R"({"id":1,"verb":"shutdown"})");

    // Daemon mode: TCP with --listen, unix socket otherwise. Same server,
    // same protocol, same response bytes either way.
    std::unique_ptr<serve::Transport> transport;
    std::string where;
    if (!tcp_listen.empty()) {
      auto tcp = std::make_unique<serve::TcpTransport>(tcp_listen);
      where = tcp->address();
      transport = std::move(tcp);
    } else {
      transport = std::make_unique<serve::UnixSocketTransport>(socket_path);
      where = socket_path;
    }
    serve::Server server(*transport, opts);
    server.start();
    std::fprintf(stderr,
                 "whisper_serve: listening on %s (jobs=%d, pool=%zu)\n",
                 where.c_str(), opts.jobs, opts.pool_capacity);
    server.wait_shutdown();
    server.stop();
    std::fprintf(stderr, "whisper_serve: bye\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whisper_serve: %s\n", e.what());
    return 1;
  }
}

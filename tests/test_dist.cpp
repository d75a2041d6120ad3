// Tests for the distributed sweep stack: endpoint grammar, the hardened
// fd connection shared by the socket transports, typed dial failures, the
// transport fault kinds, the client wire helpers, and the headline
// contract (invariant 13, docs/ARCHITECTURE.md):
//
//   a SweepClient merging one RunSpec off N whisper_serve endpoints
//   produces bytes identical to a local single-process runner::run — for
//   any endpoint count and any failure schedule that completes.
//
// The failure schedules here are scripted, not raced: KillSwitchEndpoint
// severs a daemon at an exact delivered-trial count, FlakyConnection
// drops/tears/stalls at exact request ordinals, and the merge must come
// out byte-identical every time.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/endpoint.h"
#include "client/flaky.h"
#include "client/sweep_client.h"
#include "client/wire.h"
#include "fault/fault.h"
#include "runner/runner.h"
#include "serve/fd_connection.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "serve/transport_loopback.h"
#include "serve/transport_socket.h"
#include "stats/json.h"
#include "stats/rng.h"

#if WHISPER_HAVE_FD_CONNECTION
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace whisper::client {
namespace {

// ---------------------------------------------------------------------------
// Endpoint grammar.

TEST(DistEndpoint, ParsesEveryAddressForm) {
  EXPECT_EQ(parse_endpoint("tcp:127.0.0.1:7777").kind,
            EndpointSpec::Kind::kTcp);
  EXPECT_EQ(parse_endpoint("tcp:127.0.0.1:7777").address, "127.0.0.1:7777");
  EXPECT_EQ(parse_endpoint("box:9").kind, EndpointSpec::Kind::kTcp);
  EXPECT_EQ(parse_endpoint("unix:/tmp/w.sock").kind,
            EndpointSpec::Kind::kUnix);
  EXPECT_EQ(parse_endpoint("unix:/tmp/w.sock").address, "/tmp/w.sock");
  EXPECT_EQ(parse_endpoint("/tmp/w.sock").kind, EndpointSpec::Kind::kUnix);
  EXPECT_EQ(parse_endpoint("tcp:host:1").canonical(), "tcp:host:1");
  EXPECT_EQ(parse_endpoint("unix:/a").canonical(), "unix:/a");
}

TEST(DistEndpoint, RejectsMalformedAddresses) {
  EXPECT_THROW((void)parse_endpoint(""), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("justahost"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint("unix:"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint_list("a:1,,b:2"), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoint_list(""), std::invalid_argument);
}

TEST(DistEndpoint, ParsesCommaSeparatedList) {
  const auto list = parse_endpoint_list("a:1, unix:/s, tcp:b:2");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].canonical(), "tcp:a:1");
  EXPECT_EQ(list[1].canonical(), "unix:/s");
  EXPECT_EQ(list[2].canonical(), "tcp:b:2");
}

#if WHISPER_HAVE_FD_CONNECTION
// ---------------------------------------------------------------------------
// FdConnection hardening (the shared unix/TCP read-write path).

std::pair<std::unique_ptr<serve::FdConnection>,
          std::unique_ptr<serve::FdConnection>>
fd_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {std::make_unique<serve::FdConnection>(fds[0]),
          std::make_unique<serve::FdConnection>(fds[1])};
}

TEST(DistFdConnection, WriteToClosedPeerFailsWithoutSigpipe) {
  auto [a, b] = fd_pair();
  b->close();
  // The first write may land in the kernel buffer before the RST is
  // processed; a bounded burst must surface `false` — and the process
  // must still be here to see it (MSG_NOSIGNAL / SIG_IGN, never SIGPIPE).
  bool saw_failure = false;
  const std::string line(4096, 'x');
  for (int i = 0; i < 64 && !saw_failure; ++i)
    saw_failure = !a->write_line(line);
  EXPECT_TRUE(saw_failure);
}

TEST(DistFdConnection, DeliversFinalUnterminatedFragment) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::FdConnection reader(fds[0]);
  ASSERT_EQ(::send(fds[1], "tail", 4, 0), 4);
  ::close(fds[1]);
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "tail");
  EXPECT_FALSE(reader.read_line(line));
}

TEST(DistFdConnection, ReadLineForTimesOutThenDelivers) {
  auto [a, b] = fd_pair();
  std::string line;
  EXPECT_EQ(a->read_line_for(line, 30), serve::ReadStatus::kTimeout);
  ASSERT_TRUE(b->write_line("hello"));
  EXPECT_EQ(a->read_line_for(line, 1000), serve::ReadStatus::kLine);
  EXPECT_EQ(line, "hello");
}

TEST(DistFdConnection, TruncatesOversizedLineAndResynchronizes) {
  auto [a, b] = fd_pair();
  // Writer thread: one line far over the cap, then a normal one. A thread
  // because the whole burst exceeds any socket buffer.
  std::thread writer([&b] {
    const std::string huge(serve::FdConnection::kMaxLineBytes + 64 * 1024,
                           'y');
    (void)b->write_line(huge);
    (void)b->write_line("after");
    b->close();
  });
  std::string line;
  ASSERT_TRUE(a->read_line(line));
  // The oversized line arrives truncated (its tail is discarded), and the
  // stream resynchronizes on the next newline.
  EXPECT_GT(line.size(), serve::FdConnection::kMaxLineBytes);
  EXPECT_LT(line.size(),
            serve::FdConnection::kMaxLineBytes + 64 * 1024);
  ASSERT_TRUE(a->read_line(line));
  EXPECT_EQ(line, "after");
  writer.join();
}

// Fuzz of the line reader: seeded random streams — short, empty and
// at-the-cap lines, a final fragment without a newline — written in random
// chunks while the reader polls with random read_line_for timeouts. Thread
// timing varies run to run; the properties must hold for every
// interleaving:
//   * a line up to the cap comes back exactly;
//   * a line over the cap comes back whole, or as one prefix longer than
//     the cap and at most one recv chunk (4096 bytes) past it;
//   * the line after a truncated one is the one after its newline;
//   * a timeout neither loses nor duplicates a byte (the lockstep match).
TEST(DistFdConnection, FuzzedStreamsFrameLinesExactly) {
  constexpr std::size_t kCap = serve::FdConnection::kMaxLineBytes;
  constexpr std::size_t kChunk = 4096;
  stats::Xoshiro256 rng(0xfd11e5);
  int truncated = 0;
  for (int stream = 0; stream < 6; ++stream) {
    std::vector<std::string> lines;
    const int count = 8 + static_cast<int>(rng.next_below(24));
    for (int i = 0; i < count; ++i) {
      std::size_t len = 0;
      switch (rng.next_below(8)) {
        case 0: len = 0; break;  // empty line
        case 1: len = kCap - 1 + rng.next_below(3); break;  // around the cap
        case 2:
          if (rng.next_below(2) == 0) {
            len = kCap + kChunk - 1 + rng.next_below(3);  // chunk edge
          } else {
            len = kCap + 1 + rng.next_below(20000);  // over the cap
          }
          break;
        default: len = 1 + rng.next_below(200); break;  // short
      }
      std::string line(len, '\0');
      for (std::size_t j = 0; j < len; ++j)
        line[j] = static_cast<char>('a' + (j * 7 + i + len) % 26);
      lines.push_back(std::move(line));
    }
    // Every line but the last ends in a newline; the last half the time
    // does not — the unterminated fragment delivered at EOF.
    const bool fragment = rng.next_below(2) == 0 && !lines.back().empty();
    std::string bytes;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      bytes += lines[i];
      if (i + 1 < lines.size() || !fragment) bytes += '\n';
    }

    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    serve::FdConnection reader(fds[0]);
    const std::uint64_t writer_seed = rng.next();
    std::thread writer([&bytes, fd = fds[1], writer_seed] {
      stats::Xoshiro256 wr(writer_seed);
      std::size_t off = 0;
      while (off < bytes.size()) {
        const std::size_t want = std::min<std::size_t>(
            bytes.size() - off, 1 + wr.next_below(wr.next_below(4) == 0
                                                      ? 70000
                                                      : 600));
        const ssize_t n = ::send(fd, bytes.data() + off, want, MSG_NOSIGNAL);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
        if (wr.next_below(16) == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
      ::close(fd);
    });

    std::vector<std::string> got;
    std::string line;
    for (;;) {
      const int timeout = static_cast<int>(rng.next_below(4)) - 1;  // -1..2
      const serve::ReadStatus st = reader.read_line_for(line, timeout);
      if (st == serve::ReadStatus::kClosed) break;
      if (st == serve::ReadStatus::kLine) got.push_back(line);
    }
    writer.join();

    ASSERT_EQ(got.size(), lines.size()) << "stream " << stream;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& want = lines[i];
      const std::string& have = got[i];
      if (want.size() <= kCap || have.size() == want.size()) {
        EXPECT_EQ(have, want) << "stream " << stream << " line " << i;
      } else {
        ++truncated;
        EXPECT_GT(have.size(), kCap) << "stream " << stream << " line " << i;
        EXPECT_LE(have.size(), kCap + kChunk)
            << "stream " << stream << " line " << i;
        EXPECT_EQ(want.compare(0, have.size(), have), 0)
            << "truncated line " << i << " is not a prefix (stream "
            << stream << ")";
      }
    }
  }
  // Lines longer than cap + one chunk can only arrive truncated.
  EXPECT_GT(truncated, 0);
}

// ---------------------------------------------------------------------------
// Request cap (satellite: a 64KiB+ request must be refused with a
// well-formed, attributable error line — and the connection must live on).

TEST(DistServe, OversizedRequestRefusedAndConnectionSurvives) {
  const std::string path = "/tmp/whisper_test_oversize.sock";
  serve::UnixSocketTransport transport(path);
  serve::Server server(transport, serve::ServerOptions{});
  server.start();

  auto conn = serve::UnixSocketTransport::dial(path, 2000);
  std::string padding(serve::kMaxRequestBytes, 'p');
  const std::string request =
      R"({"id":9,"verb":"ping","pad":")" + padding + R"("})";
  ASSERT_GT(request.size(), serve::kMaxRequestBytes);
  ASSERT_LT(request.size(), serve::FdConnection::kMaxLineBytes);
  ASSERT_TRUE(conn->write_line(request));

  std::string line;
  ASSERT_EQ(conn->read_line_for(line, 5000), serve::ReadStatus::kLine);
  // Exact golden: id 0 (unattributable by design — the line was refused
  // before its id field was trusted), well-formed JSON, byte count echoed.
  EXPECT_EQ(line, "{\"id\":0,\"type\":\"error\",\"error\":\"serve: request "
                  "line exceeds 65536 bytes (got " +
                      std::to_string(request.size()) + ")\"}");

  // Same connection, next request: alive and well.
  ASSERT_TRUE(conn->write_line(R"({"id":10,"verb":"ping"})"));
  ASSERT_EQ(conn->read_line_for(line, 5000), serve::ReadStatus::kLine);
  EXPECT_EQ(line, serve::response_pong(10, 1));

  // A line under the byte cap that nests 65,000 levels deep: the parser's
  // nesting cap answers it with one id-0 error instead of overflowing the
  // daemon's stack, and the connection keeps serving.
  ASSERT_TRUE(conn->write_line(std::string(65000, '[')));
  ASSERT_EQ(conn->read_line_for(line, 5000), serve::ReadStatus::kLine);
  EXPECT_EQ(line.rfind(R"({"id":0,"type":"error","error":"serve: bad JSON)", 0),
            0u)
      << line;
  ASSERT_TRUE(conn->write_line(R"({"id":11,"verb":"ping"})"));
  ASSERT_EQ(conn->read_line_for(line, 5000), serve::ReadStatus::kLine);
  EXPECT_EQ(line, serve::response_pong(11, 1));
  conn->close();
  server.stop();
}

// ---------------------------------------------------------------------------
// Typed dial failures (satellite: a dead box is a countable error, not a
// hang or an untyped crash).

TEST(DistUnixDial, NonexistentPathThrowsDialError) {
  EXPECT_THROW(
      (void)serve::UnixSocketTransport::dial(
          "/tmp/whisper_test_definitely_missing.sock", 500),
      serve::DialError);
}

TEST(DistUnixDial, StaleSocketFileThrowsDialError) {
  // A socket file whose daemon is gone: bind it, then close the listener
  // without unlinking. connect() must refuse, typed.
  const std::string path = "/tmp/whisper_test_stale.sock";
  {
    serve::UnixSocketTransport doomed(path);
    doomed.shutdown();
  }  // destructor closes the listen fd; the path may linger
  EXPECT_THROW((void)serve::UnixSocketTransport::dial(path, 500),
               serve::DialError);
}

TEST(DistTcp, ListenDialRoundTrip) {
  std::unique_ptr<serve::TcpTransport> transport;
  try {
    transport = std::make_unique<serve::TcpTransport>("127.0.0.1:0");
  } catch (const std::exception& e) {
    GTEST_SKIP() << "TCP unavailable: " << e.what();
  }
  EXPECT_NE(transport->port(), 0);  // ephemeral port was resolved
  serve::Server server(*transport, serve::ServerOptions{});
  server.start();
  auto conn = serve::TcpTransport::dial(transport->address(), 2000);
  ASSERT_TRUE(conn->write_line(R"({"id":3,"verb":"ping"})"));
  std::string line;
  ASSERT_EQ(conn->read_line_for(line, 5000), serve::ReadStatus::kLine);
  EXPECT_EQ(line, serve::response_pong(3, 1));
  conn->close();
  server.stop();
}

TEST(DistTcp, DialDeadPortThrowsDialError) {
  int port = 0;
  try {
    serve::TcpTransport probe("127.0.0.1:0");
    port = probe.port();
    probe.shutdown();
  } catch (const std::exception& e) {
    GTEST_SKIP() << "TCP unavailable: " << e.what();
  }
  EXPECT_THROW((void)serve::TcpTransport::dial(
                   "127.0.0.1:" + std::to_string(port), 500),
               serve::DialError);
}

TEST(DistTcp, UnresolvableHostThrowsDialError) {
  EXPECT_THROW(
      (void)serve::TcpTransport::dial("host.invalid.whisper:1", 500),
      serve::DialError);
}

// The address is parsed before any socket exists, so these refusals hold
// wherever AF_INET is forbidden too.
TEST(DistTcp, RefusesMalformedPorts) {
  const auto refusal = [](const std::string& address) -> std::string {
    try {
      serve::TcpTransport transport(address);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const std::string address : {":65536", ":", ":12x"})
    EXPECT_EQ(refusal(address),
              "serve: listen port in '" + address + "' must be 0..65535");
  EXPECT_EQ(refusal("7777"),
            "serve: listen address must be host:port, got '7777'");
  EXPECT_THROW((void)serve::TcpTransport::dial("127.0.0.1:99999"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// The one socket listener, run for both kinds: shutdown() wakes an accept()
// parked on another thread, a second shutdown() is harmless, later dials
// refuse typed, and the unix kind removes its socket file.

class DistListener : public ::testing::TestWithParam<std::string> {};

TEST_P(DistListener, ShutdownWakesAcceptAndRefusesDials) {
  const bool unix_kind = GetParam() == "unix";
  const std::string path = "/tmp/whisper_test_listener.sock";
  std::unique_ptr<serve::SocketTransport> transport;
  std::string address = path;
  if (unix_kind) {
    transport = std::make_unique<serve::UnixSocketTransport>(path);
  } else {
    try {
      auto tcp = std::make_unique<serve::TcpTransport>("127.0.0.1:0");
      address = tcp->address();
      transport = std::move(tcp);
    } catch (const std::exception& e) {
      GTEST_SKIP() << "TCP unavailable: " << e.what();
    }
  }
  const auto dial = [&] {
    return unix_kind ? serve::UnixSocketTransport::dial(address, 500)
                     : serve::TcpTransport::dial(address, 500);
  };
  // Live first: a dial is accepted.
  auto client = dial();
  ASSERT_NE(transport->accept(), nullptr);
  client->close();

  std::atomic<bool> returned{false};
  std::unique_ptr<serve::Connection> accepted;
  std::thread acceptor([&] {
    accepted = transport->accept();
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load()) << "accept() did not block";
  transport->shutdown();
  acceptor.join();
  EXPECT_EQ(accepted, nullptr);

  transport->shutdown();
  EXPECT_EQ(transport->accept(), nullptr);
  EXPECT_THROW((void)dial(), serve::DialError);
  if (unix_kind) {
    EXPECT_NE(::access(path.c_str(), F_OK), 0) << "socket file left behind";
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, DistListener,
                         ::testing::Values("unix", "tcp"),
                         [](const auto& info) { return info.param; });
#endif  // WHISPER_HAVE_FD_CONNECTION

// ---------------------------------------------------------------------------
// Transport fault kinds and their boundary with trial faults.

TEST(DistFault, TransportKindsParseAndPrint) {
  const fault::FaultPlan plan = fault::FaultPlan::parse("drop@1;shortread@3");
  EXPECT_TRUE(plan.uses(fault::Kind::kDrop));
  EXPECT_TRUE(plan.uses(fault::Kind::kShortRead));
  EXPECT_TRUE(plan.fires(fault::Kind::kDrop, 1, 0));
  EXPECT_FALSE(plan.fires(fault::Kind::kDrop, 2, 0));
  EXPECT_EQ(fault::to_string(fault::Kind::kDrop), std::string("drop"));
  EXPECT_EQ(fault::to_string(fault::Kind::kShortRead),
            std::string("shortread"));
}

TEST(DistFault, RunnerValidateRejectsTransportKindsInTrialPlans) {
  runner::RunSpec spec;
  spec.attack = "cc";
  spec.fault_plan = "drop@1";
  EXPECT_THROW(runner::validate(spec), std::invalid_argument);
  spec.fault_plan = "shortread~50@7";
  EXPECT_THROW(runner::validate(spec), std::invalid_argument);
  // stall is legal on both sides — as a trial fault it just needs the
  // cycle budget that bounds a stalled trial.
  spec.fault_plan = "stall@1";
  spec.trial_cycle_budget = 20'000'000;
  EXPECT_NO_THROW(runner::validate(spec));
}

TEST(DistFlaky, RejectsTrialKindsInFlakyPlans) {
  serve::LoopbackTransport transport;
  serve::Server server(transport, serve::ServerOptions{});
  server.start();
  LoopbackEndpoint endpoint(transport);
  std::uint64_t requests = 0;
  EXPECT_THROW(FlakyConnection(endpoint.dial(-1),
                               fault::FaultPlan::parse("throw@1"), requests),
               std::invalid_argument);
  server.stop();
}

TEST(DistFlaky, DropsExactlyTheNamedRequestOrdinal) {
  serve::LoopbackTransport transport;
  serve::Server server(transport, serve::ServerOptions{});
  server.start();
  LoopbackEndpoint endpoint(transport);
  std::uint64_t requests = 0;
  FlakyConnection flaky(endpoint.dial(-1), fault::FaultPlan::parse("drop@1"),
                        requests);
  std::string line;
  ASSERT_TRUE(flaky.write_line(R"({"id":1,"verb":"ping"})"));  // request 0
  ASSERT_EQ(flaky.read_line_for(line, 5000), serve::ReadStatus::kLine);
  EXPECT_EQ(line, serve::response_pong(1, 1));
  // Request 1 is the named ordinal: the write severs instead of sending.
  EXPECT_FALSE(flaky.write_line(R"({"id":2,"verb":"ping"})"));
  EXPECT_EQ(requests, 2u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Wire helpers and the trial_first shard window.

runner::RunSpec cheap_spec(int trials, std::uint64_t seed = 0xd157ULL) {
  runner::RunSpec spec;
  spec.attack = "cc";
  spec.trials = trials;
  spec.base_seed = seed;
  spec.batches = 2;
  spec.payload_bytes = 2;
  return spec;
}

TEST(DistWire, NormalizeIdRewritesOnlyTheLeadingId) {
  EXPECT_EQ(normalize_id("{\"id\":42,\"type\":\"pong\"}"),
            "{\"id\":0,\"type\":\"pong\"}");
  EXPECT_EQ(normalize_id("{\"id\":0,\"x\":1}"), "{\"id\":0,\"x\":1}");
  EXPECT_EQ(normalize_id("not a response"), "not a response");
}

TEST(DistWire, RejectsSpecsTheWireCannotCarry) {
  runner::RunSpec spec = cheap_spec(2);
  spec.collect_trace = true;
  EXPECT_THROW((void)run_request_json(1, spec, 0, 2), std::invalid_argument);
}

TEST(DistWire, TrialFirstRunsAnAbsoluteWindowOfTheSchedule) {
  // One request for trials [2, 5) of an 8-trial spec must return exactly
  // the lines a full local run produces at indices 2..4 — same seeds,
  // same faults, same bytes (that is what makes sharding mergeable).
  const runner::RunSpec spec = cheap_spec(8);
  const runner::RunResult local = runner::run(spec, 1);
  const std::vector<std::string> want = canonical_trial_lines(local);

  serve::LoopbackTransport transport;
  serve::Server server(transport, serve::ServerOptions{});
  server.start();
  auto client = transport.connect();
  client->send(run_request_json(5, spec, 2, 3));
  client->close_send();
  std::vector<std::string> lines;
  std::string line;
  while (client->recv(line)) lines.push_back(line);
  server.stop();

  ASSERT_EQ(lines.size(), 4u);  // three trials + done
  EXPECT_EQ(normalize_id(lines[0]), want[2]);
  EXPECT_EQ(normalize_id(lines[1]), want[3]);
  EXPECT_EQ(normalize_id(lines[2]), want[4]);
  const stats::JsonValue done = stats::json_parse(lines[3]);
  EXPECT_EQ(done.get("type")->string, "done");
  EXPECT_EQ(done.get("trials")->number, 3.0);
}

// ---------------------------------------------------------------------------
// Invariant 13: the distributed merge is byte-identical to a local run.

struct LoopbackCluster {
  std::vector<std::unique_ptr<serve::LoopbackTransport>> transports;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::shared_ptr<Endpoint>> endpoints;

  explicit LoopbackCluster(std::size_t n, int jobs = 1) {
    for (std::size_t i = 0; i < n; ++i) {
      transports.push_back(std::make_unique<serve::LoopbackTransport>());
      servers.push_back(std::make_unique<serve::Server>(
          *transports.back(), serve::ServerOptions{.jobs = jobs}));
      servers.back()->start();
      endpoints.push_back(std::make_shared<LoopbackEndpoint>(
          *transports.back(), "loopback:" + std::to_string(i)));
    }
  }
  ~LoopbackCluster() {
    for (auto& s : servers) s->stop();
  }
};

SweepOptions fast_opts() {
  SweepOptions opts;
  opts.chunk_trials = 2;
  opts.backoff_base_ms = 1;
  opts.backoff_max_ms = 10;
  return opts;
}

TEST(DistSweep, ByteIdenticalAcrossEndpointCounts) {
  const runner::RunSpec spec = cheap_spec(8);
  const runner::RunResult local = runner::run(spec, 1);
  const std::vector<std::string> want = canonical_trial_lines(local);
  const std::string want_done = canonical_done_line(local);

  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    LoopbackCluster cluster(n);
    SweepClient sweeper(fast_opts());
    const SweepResult r = sweeper.sweep(spec, cluster.endpoints);
    ASSERT_TRUE(r.complete) << n << " endpoints: " << r.error;
    EXPECT_EQ(r.trial_lines, want) << n << " endpoints";
    EXPECT_EQ(r.done_line, want_done) << n << " endpoints";
    EXPECT_EQ(r.stats.duplicate_trials, 0u);
  }
}

TEST(DistSweep, SixtyFourBitSeedMatchesTheLocalRun) {
  // 2^53 + 1 has no double: a wire that read integers through a double ran
  // seed 2^53 on the daemons and a different trial stream than local.
  const runner::RunSpec spec = cheap_spec(4, (std::uint64_t{1} << 53) + 1);
  const runner::RunResult local = runner::run(spec, 1);

  LoopbackCluster cluster(2);
  SweepClient sweeper(fast_opts());
  const SweepResult r = sweeper.sweep(spec, cluster.endpoints);
  ASSERT_TRUE(r.complete) << r.error;
  EXPECT_EQ(r.trial_lines, canonical_trial_lines(local));
  EXPECT_EQ(r.done_line, canonical_done_line(local));
}

TEST(DistSweep, KillMidSweepReassignsAndStaysByteIdentical) {
  const runner::RunSpec spec = cheap_spec(8);
  const runner::RunResult local = runner::run(spec, 1);

  LoopbackCluster cluster(3);
  auto lever = std::make_shared<KillSwitchEndpoint>(
      std::make_unique<LoopbackEndpoint>(*cluster.transports[1],
                                         "loopback:1"));
  std::vector<std::shared_ptr<Endpoint>> endpoints = cluster.endpoints;
  endpoints[1] = lever;

  SweepOptions opts = fast_opts();
  opts.chunk_trials = 1;  // endpoint 1 owns chunks 1, 4, 7 — orphans to give
  opts.endpoint_failures = 2;
  opts.on_trial = [lever](std::size_t endpoint, std::size_t delivered) {
    if (endpoint == 1 && delivered >= 1) lever->kill();
  };
  SweepClient sweeper(opts);
  const SweepResult r = sweeper.sweep(spec, endpoints);

  ASSERT_TRUE(r.complete) << r.error;
  EXPECT_EQ(r.trial_lines, canonical_trial_lines(local));
  EXPECT_EQ(r.done_line, canonical_done_line(local));
  EXPECT_TRUE(lever->killed());
  EXPECT_GE(r.stats.dead_endpoints, 1u);
  EXPECT_GT(r.stats.reassigned, 0u);
  EXPECT_GT(r.stats.unreachable, 0u);
  // Work moved off the dead box: survivors carried more than their share.
  EXPECT_EQ(r.stats.trials_by_endpoint[0] + r.stats.trials_by_endpoint[1] +
                r.stats.trials_by_endpoint[2],
            8u);
}

TEST(DistSweep, FlakyTransportRecoversByteIdentical) {
  const runner::RunSpec spec = cheap_spec(8);
  const runner::RunResult local = runner::run(spec, 1);

  LoopbackCluster cluster(2);
  SweepOptions opts = fast_opts();
  opts.chunk_trials = 1;  // enough request ordinals to hit every plan point
  opts.flaky_plan = "drop@1;shortread@3;stall@5";
  opts.flaky_stall_ms = 10;
  SweepClient sweeper(opts);
  const SweepResult r = sweeper.sweep(spec, cluster.endpoints);

  ASSERT_TRUE(r.complete) << r.error;
  EXPECT_EQ(r.trial_lines, canonical_trial_lines(local));
  EXPECT_EQ(r.done_line, canonical_done_line(local));
  EXPECT_GT(r.stats.reconnects, 0u);
}

TEST(DistSweep, AllEndpointsDeadReportsIncompleteWithoutHanging) {
  LoopbackCluster cluster(2);
  std::vector<std::shared_ptr<Endpoint>> endpoints;
  for (std::size_t i = 0; i < 2; ++i) {
    auto lever = std::make_shared<KillSwitchEndpoint>(
        std::make_unique<LoopbackEndpoint>(*cluster.transports[i]));
    lever->kill();  // dead before the sweep even starts
    endpoints.push_back(lever);
  }
  SweepOptions opts = fast_opts();
  opts.endpoint_failures = 2;
  SweepClient sweeper(opts);
  const SweepResult r = sweeper.sweep(cheap_spec(4), endpoints);
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(r.error.empty());  // starvation, not a protocol violation
  EXPECT_EQ(r.stats.dead_endpoints, 2u);
  EXPECT_EQ(r.trials_received, 0u);
  EXPECT_GT(r.stats.unreachable, 0u);
}

#if WHISPER_HAVE_FD_CONNECTION
TEST(DistSweep, TcpEndpointsAreByteIdenticalToo) {
  const runner::RunSpec spec = cheap_spec(6);
  const runner::RunResult local = runner::run(spec, 1);

  std::vector<std::unique_ptr<serve::TcpTransport>> transports;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::shared_ptr<Endpoint>> endpoints;
  try {
    for (int i = 0; i < 2; ++i) {
      transports.push_back(
          std::make_unique<serve::TcpTransport>("127.0.0.1:0"));
      servers.push_back(std::make_unique<serve::Server>(
          *transports.back(), serve::ServerOptions{}));
      servers.back()->start();
      endpoints.push_back(make_endpoint(
          parse_endpoint("tcp:" + transports.back()->address())));
    }
  } catch (const std::exception& e) {
    for (auto& s : servers) s->stop();
    GTEST_SKIP() << "TCP unavailable: " << e.what();
  }
  SweepClient sweeper(fast_opts());
  const SweepResult r = sweeper.sweep(spec, endpoints);
  for (auto& s : servers) s->stop();

  ASSERT_TRUE(r.complete) << r.error;
  EXPECT_EQ(r.trial_lines, canonical_trial_lines(local));
  EXPECT_EQ(r.done_line, canonical_done_line(local));
}
#endif  // WHISPER_HAVE_FD_CONNECTION

// ---------------------------------------------------------------------------
// The window: against a daemon with W workers an endpoint keeps W chunks in
// flight, so one sweep keeps every worker busy. The merge is by absolute
// index, so the bytes cannot move.

TEST(DistWindow, ByteIdenticalAcrossEndpointCountsAtTwoWorkers) {
  const runner::RunSpec spec = cheap_spec(8);
  const runner::RunResult local = runner::run(spec, 1);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    LoopbackCluster cluster(n, /*jobs=*/2);
    SweepClient sweeper(fast_opts());
    const SweepResult r = sweeper.sweep(spec, cluster.endpoints);
    ASSERT_TRUE(r.complete) << n << " endpoints: " << r.error;
    EXPECT_EQ(r.trial_lines, canonical_trial_lines(local)) << n;
    EXPECT_EQ(r.done_line, canonical_done_line(local)) << n;
    EXPECT_EQ(r.stats.duplicate_trials, 0u);
    // Four chunks, four run requests: the per-dial ping is not one.
    EXPECT_EQ(r.stats.requests, 4u) << n;
  }
}

TEST(DistWindow, KillMidSweepAtTwoWorkersStaysByteIdentical) {
  const runner::RunSpec spec = cheap_spec(8);
  const runner::RunResult local = runner::run(spec, 1);

  LoopbackCluster cluster(3, /*jobs=*/2);
  auto lever = std::make_shared<KillSwitchEndpoint>(
      std::make_unique<LoopbackEndpoint>(*cluster.transports[1],
                                         "loopback:1"));
  std::vector<std::shared_ptr<Endpoint>> endpoints = cluster.endpoints;
  endpoints[1] = lever;

  SweepOptions opts = fast_opts();
  opts.chunk_trials = 1;  // endpoint 1 has chunks 1 and 4 in flight at once
  opts.endpoint_failures = 2;
  opts.on_trial = [lever](std::size_t endpoint, std::size_t delivered) {
    if (endpoint == 1 && delivered >= 1) lever->kill();
  };
  SweepClient sweeper(opts);
  const SweepResult r = sweeper.sweep(spec, endpoints);

  ASSERT_TRUE(r.complete) << r.error;
  EXPECT_EQ(r.trial_lines, canonical_trial_lines(local));
  EXPECT_EQ(r.done_line, canonical_done_line(local));
  EXPECT_EQ(r.stats.dead_endpoints, 1u);
  EXPECT_GT(r.stats.reassigned, 0u);
  EXPECT_EQ(r.stats.trials_by_endpoint[0] + r.stats.trials_by_endpoint[1] +
                r.stats.trials_by_endpoint[2],
            8u);
}

TEST(DistWindow, FlakyTransportAtTwoWorkersRecoversByteIdentical) {
  const runner::RunSpec spec = cheap_spec(8);
  const runner::RunResult local = runner::run(spec, 1);

  LoopbackCluster cluster(2, /*jobs=*/2);
  SweepOptions opts = fast_opts();
  opts.chunk_trials = 1;
  opts.flaky_plan = "drop@1;shortread@3;stall@5";
  opts.flaky_stall_ms = 10;
  SweepClient sweeper(opts);
  const SweepResult r = sweeper.sweep(spec, cluster.endpoints);

  ASSERT_TRUE(r.complete) << r.error;
  EXPECT_EQ(r.trial_lines, canonical_trial_lines(local));
  EXPECT_EQ(r.done_line, canonical_done_line(local));
  EXPECT_GT(r.stats.reconnects, 0u);
  EXPECT_GT(r.stats.timed_out, 0u);  // the stall reached its deadline
}

/// Server side of a loopback daemon that holds each "done" line back until
/// a trial line of another request has been written on the same
/// connection, or until a bound passes. Chunks that execute one after the
/// other can only be released by the bound.
class DoneGateConnection : public serve::Connection {
 public:
  DoneGateConnection(std::unique_ptr<serve::Connection> inner,
                     std::atomic<int>& bound_hits)
      : inner_(std::move(inner)), bound_hits_(bound_hits) {}

  serve::ReadStatus read_line_for(std::string& out, int timeout_ms) override {
    return inner_->read_line_for(out, timeout_ms);
  }
  bool write_line(const std::string& line) override {
    const stats::JsonValue doc = stats::json_parse(line);
    const std::string type = doc.get("type")->string;
    const std::uint64_t id = *doc.get("id")->as_int<std::uint64_t>();
    std::unique_lock<std::mutex> lock(mu_);
    if (type == "trial") {
      trial_ids_.push_back(id);
      cv_.notify_all();
    } else if (type == "done") {
      const auto other = [&] {
        return std::any_of(trial_ids_.begin(), trial_ids_.end(),
                           [id](std::uint64_t t) { return t != id; });
      };
      if (!cv_.wait_for(lock, std::chrono::seconds(3), other)) ++bound_hits_;
    }
    lock.unlock();
    return inner_->write_line(line);
  }
  void close() override { inner_->close(); }


 private:
  std::unique_ptr<serve::Connection> inner_;
  std::atomic<int>& bound_hits_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::uint64_t> trial_ids_;
};

class DoneGateTransport : public serve::Transport {
 public:
  std::unique_ptr<serve::Connection> accept() override {
    std::unique_ptr<serve::Connection> conn = inner.accept();
    if (!conn) return nullptr;
    return std::make_unique<DoneGateConnection>(std::move(conn), bound_hits);
  }
  void shutdown() override { inner.shutdown(); }

  serve::LoopbackTransport inner;
  /// Done lines released by the bound instead of by a concurrent chunk.
  std::atomic<int> bound_hits{0};
};

TEST(DistWindow, OneSweepRunsTwoChunksAtOnceOnATwoWorkerDaemon) {
  const runner::RunSpec spec = cheap_spec(4);
  const runner::RunResult local = runner::run(spec, 1);

  DoneGateTransport transport;
  serve::Server server(transport, serve::ServerOptions{.jobs = 2});
  server.start();
  const std::vector<std::shared_ptr<Endpoint>> endpoints = {
      std::make_shared<LoopbackEndpoint>(transport.inner)};
  SweepClient sweeper(fast_opts());  // 2 chunks of 2 trials
  const SweepResult r = sweeper.sweep(spec, endpoints);
  // Chunk 0's done line waits for a trial of chunk 1: only a chunk that
  // runs while chunk 0 is still open can write one.
  EXPECT_EQ(transport.bound_hits.load(), 0);
  server.stop();

  ASSERT_TRUE(r.complete) << r.error;
  EXPECT_EQ(r.trial_lines, canonical_trial_lines(local));
  EXPECT_EQ(r.done_line, canonical_done_line(local));
}

/// Client side of a loopback endpoint that counts run requests in flight
/// (written, done line not yet read) and can strip "workers" from pongs,
/// as a daemon that predates the member would answer.
class InFlightProbe : public Endpoint {
 public:
  InFlightProbe(serve::LoopbackTransport& transport, bool strip_workers)
      : inner_(transport), strip_workers_(strip_workers) {}

  std::unique_ptr<serve::Connection> dial(int timeout_ms) override {
    return std::make_unique<Conn>(inner_.dial(timeout_ms), *this);
  }
  std::string label() const override { return inner_.label(); }

  int max_in_flight = 0;  // read after the sweep returns

 private:
  class Conn : public serve::Connection {
   public:
    Conn(std::unique_ptr<serve::Connection> inner, InFlightProbe& probe)
        : inner_(std::move(inner)), probe_(probe) {}
    serve::ReadStatus read_line_for(std::string& out,
                                    int timeout_ms) override {
      const serve::ReadStatus st = inner_->read_line_for(out, timeout_ms);
      if (st != serve::ReadStatus::kLine) return st;
      if (out.find(R"("type":"done")") != std::string::npos) --in_flight_;
      const std::size_t workers = out.find(R"(,"workers":)");
      if (probe_.strip_workers_ && workers != std::string::npos)
        out.erase(workers, out.find('}', workers) - workers);
      return st;
    }
    bool write_line(const std::string& line) override {
      if (line.find(R"("verb":"run")") != std::string::npos)
        probe_.max_in_flight = std::max(probe_.max_in_flight, ++in_flight_);
      return inner_->write_line(line);
    }
    void close() override { inner_->close(); }

   private:
    std::unique_ptr<serve::Connection> inner_;
    InFlightProbe& probe_;
    int in_flight_ = 0;
  };

  LoopbackEndpoint inner_;
  bool strip_workers_;
};

TEST(DistWindow, PongWithoutWorkersKeepsOneChunkInFlight) {
  const runner::RunSpec spec = cheap_spec(8);
  const runner::RunResult local = runner::run(spec, 1);
  LoopbackCluster cluster(1, /*jobs=*/2);
  for (const bool strip : {true, false}) {
    auto probe = std::make_shared<InFlightProbe>(*cluster.transports[0],
                                                 strip);
    SweepClient sweeper(fast_opts());
    const SweepResult r = sweeper.sweep(spec, {probe});
    ASSERT_TRUE(r.complete) << r.error;
    EXPECT_EQ(r.trial_lines, canonical_trial_lines(local));
    EXPECT_EQ(probe->max_in_flight, strip ? 1 : 2) << "strip " << strip;
  }
}

// ---------------------------------------------------------------------------
// Invariant 13's guards: a daemon whose bytes differ is caught, never merged.

/// Server side of a loopback daemon that rewrites its response lines
/// through `lie` on the way out, and calls `after_lie` once a rewritten
/// line is written.
class LyingConnection : public serve::Connection {
 public:
  using Lie = std::function<std::string(std::string)>;

  LyingConnection(std::unique_ptr<serve::Connection> inner, Lie lie,
                  std::function<void()> after_lie)
      : inner_(std::move(inner)),
        lie_(std::move(lie)),
        after_lie_(std::move(after_lie)) {}

  serve::ReadStatus read_line_for(std::string& out, int timeout_ms) override {
    return inner_->read_line_for(out, timeout_ms);
  }
  bool write_line(const std::string& line) override {
    const std::string told = lie_(line);
    const bool written = inner_->write_line(told);
    if (told != line && after_lie_) after_lie_();
    return written;
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<serve::Connection> inner_;
  Lie lie_;
  std::function<void()> after_lie_;
};

class LyingTransport : public serve::Transport {
 public:
  explicit LyingTransport(LyingConnection::Lie lie) : lie_(std::move(lie)) {}

  std::unique_ptr<serve::Connection> accept() override {
    std::unique_ptr<serve::Connection> conn = inner.accept();
    if (!conn) return nullptr;
    return std::make_unique<LyingConnection>(std::move(conn), lie_,
                                             after_lie);
  }
  void shutdown() override { inner.shutdown(); }

  serve::LoopbackTransport inner;
  /// Set before the first connection is accepted.
  std::function<void()> after_lie;

 private:
  LyingConnection::Lie lie_;
};

/// Rewrites trial 0's line: a field no honest daemon writes, or (with
/// `index_to` set) an index of its choosing.
LyingConnection::Lie lie_about_trial_0(
    const std::string& index_to = "") {
  return [index_to](std::string line) {
    const std::string index0 = R"("type":"trial","index":0,)";
    const std::size_t at = line.find(index0);
    if (at == std::string::npos) return line;
    if (index_to.empty())
      line.insert(line.size() - 1, R"(,"lie":1)");
    else
      line.replace(at, index0.size(),
                   R"("type":"trial","index":)" + index_to + ",");
    return line;
  };
}

TEST(DistLie, TrialThatDiffersBetweenEndpointsEndsTheSweepUnmerged) {
  const runner::RunSpec spec = cheap_spec(2);
  LyingTransport liar(lie_about_trial_0());
  serve::Server lying_server(liar, serve::ServerOptions{.jobs = 1});
  lying_server.start();
  LoopbackCluster honest(1);
  auto lever = std::make_shared<KillSwitchEndpoint>(
      std::make_unique<LoopbackEndpoint>(liar.inner, "loopback:liar"));
  const std::vector<std::shared_ptr<Endpoint>> endpoints = {
      lever, honest.endpoints[0]};

  // Kill the liar right after it wrote its rewritten trial 0, before its
  // done line: the client reads the lie, then a closed connection, and the
  // chunk goes to the honest daemon, whose trial 0 arrives as a duplicate.
  liar.after_lie = [lever] { lever->kill(); };

  SweepOptions opts = fast_opts();
  opts.chunk_trials = 1;  // the liar owns chunk 0 (trial 0), honest chunk 1
  opts.endpoint_failures = 0;
  SweepClient sweeper(opts);
  const SweepResult r = sweeper.sweep(spec, endpoints);
  lying_server.stop();

  EXPECT_TRUE(lever->killed());
  EXPECT_FALSE(r.complete);
  EXPECT_NE(r.error.find("client: trial 0 differs between endpoints"),
            std::string::npos)
      << r.error;
  EXPECT_NE(r.error.find("(invariant 13)"), std::string::npos) << r.error;
  EXPECT_EQ(r.stats.duplicate_trials, 1u);
  EXPECT_TRUE(r.done_line.empty()) << "a breached sweep was merged";
  EXPECT_NE(r.trial_lines[0].find(R"("lie":1)"), std::string::npos)
      << "the first copy stored was not the liar's";
}

TEST(DistLie, TrialIndexPastTheEndEndsTheSweepUnmerged) {
  const runner::RunSpec spec = cheap_spec(2);
  LyingTransport liar(lie_about_trial_0("2"));  // one past the last trial
  serve::Server lying_server(liar, serve::ServerOptions{.jobs = 1});
  lying_server.start();
  const std::vector<std::shared_ptr<Endpoint>> endpoints = {
      std::make_shared<LoopbackEndpoint>(liar.inner, "loopback:liar")};

  SweepOptions opts = fast_opts();
  opts.chunk_trials = 2;
  SweepClient sweeper(opts);
  const SweepResult r = sweeper.sweep(spec, endpoints);
  lying_server.stop();

  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.error, "client: trial line without an in-range index");
  EXPECT_TRUE(r.trial_lines[0].empty());
  EXPECT_TRUE(r.done_line.empty()) << "a breached sweep was merged";
}

TEST(DistLie, ErrorResponseEndsTheSweepWithTheDaemonsMessage) {
  const runner::RunSpec spec = cheap_spec(2);
  // Trial 0's line becomes a refusal under the same id.
  LyingTransport liar([](std::string line) {
    const std::size_t at = line.find(R"("type":"trial","index":0,)");
    if (at == std::string::npos) return line;
    return line.substr(0, at) +
           R"("type":"error","error":"daemon: spec refused"})";
  });
  serve::Server lying_server(liar, serve::ServerOptions{.jobs = 1});
  lying_server.start();
  const std::vector<std::shared_ptr<Endpoint>> endpoints = {
      std::make_shared<LoopbackEndpoint>(liar.inner, "loopback:liar")};

  SweepOptions opts = fast_opts();
  opts.chunk_trials = 2;
  SweepClient sweeper(opts);
  const SweepResult r = sweeper.sweep(spec, endpoints);
  lying_server.stop();

  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.error, "daemon: spec refused");
  EXPECT_TRUE(r.trial_lines[0].empty());
  EXPECT_TRUE(r.done_line.empty()) << "a refused sweep was merged";
}

#if WHISPER_HAVE_FD_CONNECTION
TEST(DistWindow, TcpEndpointsAtTwoWorkersAreByteIdentical) {
  const runner::RunSpec spec = cheap_spec(6);
  const runner::RunResult local = runner::run(spec, 1);

  std::vector<std::unique_ptr<serve::TcpTransport>> transports;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::shared_ptr<Endpoint>> endpoints;
  try {
    for (int i = 0; i < 2; ++i) {
      transports.push_back(
          std::make_unique<serve::TcpTransport>("127.0.0.1:0"));
      servers.push_back(std::make_unique<serve::Server>(
          *transports.back(), serve::ServerOptions{.jobs = 2}));
      servers.back()->start();
      endpoints.push_back(make_endpoint(
          parse_endpoint("tcp:" + transports.back()->address())));
    }
  } catch (const std::exception& e) {
    for (auto& s : servers) s->stop();
    GTEST_SKIP() << "TCP unavailable: " << e.what();
  }
  SweepOptions opts = fast_opts();
  opts.chunk_trials = 1;  // three chunks per endpoint, two in flight
  SweepClient sweeper(opts);
  const SweepResult r = sweeper.sweep(spec, endpoints);
  for (auto& s : servers) s->stop();

  ASSERT_TRUE(r.complete) << r.error;
  EXPECT_EQ(r.trial_lines, canonical_trial_lines(local));
  EXPECT_EQ(r.done_line, canonical_done_line(local));
}
#endif  // WHISPER_HAVE_FD_CONNECTION

}  // namespace
}  // namespace whisper::client

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
#include <chrono>
#include <cstdint>
#include <memory>
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
#include "serve/transport_tcp.h"
#include "serve/transport_unix.h"
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
  return {std::make_unique<serve::FdConnection>(fds[0], "a"),
          std::make_unique<serve::FdConnection>(fds[1], "b")};
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
  serve::FdConnection reader(fds[0], "reader");
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
    serve::FdConnection reader(fds[0], "reader");
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
  EXPECT_EQ(line, serve::response_pong(10));

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
  EXPECT_EQ(line, serve::response_pong(11));
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
  EXPECT_EQ(line, serve::response_pong(3));
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
  EXPECT_THROW(FlakyConnection(endpoint.dial(-1),
                               fault::FaultPlan::parse("throw@1")),
               std::invalid_argument);
  server.stop();
}

TEST(DistFlaky, DropsExactlyTheNamedRequestOrdinal) {
  serve::LoopbackTransport transport;
  serve::Server server(transport, serve::ServerOptions{});
  server.start();
  LoopbackEndpoint endpoint(transport);
  FlakyConnection flaky(endpoint.dial(-1), fault::FaultPlan::parse("drop@1"));
  std::string line;
  ASSERT_TRUE(flaky.write_line(R"({"id":1,"verb":"ping"})"));  // request 0
  ASSERT_EQ(flaky.read_line_for(line, 5000), serve::ReadStatus::kLine);
  EXPECT_EQ(line, serve::response_pong(1));
  // Request 1 is the named ordinal: the write severs instead of sending.
  EXPECT_FALSE(flaky.write_line(R"({"id":2,"verb":"ping"})"));
  EXPECT_EQ(flaky.next_request(), 2u);
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

  explicit LoopbackCluster(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      transports.push_back(std::make_unique<serve::LoopbackTransport>());
      servers.push_back(std::make_unique<serve::Server>(
          *transports.back(), serve::ServerOptions{}));
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

}  // namespace
}  // namespace whisper::client

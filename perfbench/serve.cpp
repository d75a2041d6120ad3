// The `serve` workload: daemon traffic from independent users.
//
// One in-process serve::Server with `jobs` workers runs over a
// LoopbackTransport. Small run requests (mostly cc, some v1 and kaslr; 1-2
// trials of 2 bytes) arrive open loop on a seeded Poisson schedule at a
// fixed offered rate; each is timed from the moment it was due until its
// `done` line arrives. A closed-loop phase with 2 × `jobs` outstanding
// requests then measures the saturation rate (max_rps, on a note line).
// The load generator is one sending thread plus one receiving thread per
// connection, `jobs` threads in all (two when jobs is 1).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "client/wire.h"
#include "fault/fault.h"
#include "harness.h"
#include "runner/runner.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport_loopback.h"
#include "stats/rng.h"

namespace perfbench {

namespace {

/// Offered open-loop rate, requests per second. On a 4-core x86-64
/// container max_rps read 260-470 as the host's other load changed; at
/// 200/s the slow end ran the daemon over 60% busy and p50 swung threefold
/// with the host's speed. 100/s keeps it under 40% busy there.
constexpr double kOfferedRps = 100.0;
/// Share of --seconds spent in the open-loop phase (about 1400 requests in
/// 20 s); the rest is closed loop.
constexpr double kOpenShare = 0.7;
/// Open-loop requests whose response streams are replayed in process.
constexpr std::size_t kReplaySample = 16;
/// Request ids: open loop from 1, closed loop and warm-up from these bases.
constexpr std::uint64_t kClosedIdBase = 1ULL << 32;
constexpr std::uint64_t kWarmIdBase = 1ULL << 40;
constexpr int kReadTimeoutMs = 60000;

/// The request with `id`. Each block of 20 consecutive ids holds exactly
/// 14 cc, 3 v1 and 3 kaslr requests, half of them with 2 trials, in an
/// order and with seeds drawn from the workload seed: the mix is fixed, so
/// the work offered per second barely depends on the seed.
std::string request_line(std::uint64_t seed, std::uint64_t id,
                         int* trials_out = nullptr) {
  constexpr std::uint64_t kBlock = 20;
  const std::uint64_t block = id / kBlock;
  whisper::stats::Xoshiro256 rng(seed ^ (block * 0x9e3779b97f4a7c15ULL));
  std::uint64_t slots[kBlock];
  for (std::uint64_t i = 0; i < kBlock; ++i) slots[i] = i;
  for (std::uint64_t i = kBlock; i > 1; --i)
    std::swap(slots[i - 1], slots[rng.next_below(i)]);
  const std::uint64_t slot = slots[id % kBlock];
  whisper::stats::Xoshiro256 seeds(seed ^ ~(id * 0xd1b54a32d192ed03ULL));

  whisper::runner::RunSpec s;
  s.model = whisper::uarch::CpuModel::KabyLakeI7_7700;
  s.attack = slot < 14 ? "cc" : (slot < 17 ? "v1" : "kaslr");
  s.trials = 1 + static_cast<int>(slot % 2);
  // Seeds stay below 2^53: the wire reads numbers as doubles.
  s.base_seed = seeds.next() >> 11;
  s.payload_seed = seeds.next() >> 11;
  s.payload_bytes = 2;
  s.batches = s.attack == "kaslr" ? 0 : 1;  // kaslr keeps its 3 rounds
  if (trials_out) *trials_out = s.trials;
  return whisper::client::run_request_json(id, s, 0, s.trials);
}

/// The head of a response line: {"id":N,"type":"T",...}.
struct Head {
  std::uint64_t id = 0;
  std::string_view type;
};

bool parse_head(const std::string& line, Head& h) {
  constexpr std::string_view kId = "{\"id\":";
  constexpr std::string_view kType = ",\"type\":\"";
  if (line.compare(0, kId.size(), kId) != 0) return false;
  char* end = nullptr;
  h.id = std::strtoull(line.c_str() + kId.size(), &end, 10);
  const std::size_t at = static_cast<std::size_t>(end - line.c_str());
  if (line.compare(at, kType.size(), kType) != 0) return false;
  const std::size_t from = at + kType.size();
  const std::size_t to = line.find('"', from);
  if (to == std::string::npos) return false;
  h.type = std::string_view(line).substr(from, to - from);
  return true;
}

std::uint64_t field_u64(const std::string& line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
}

/// One open-loop request. The sender writes `sent_ns` before sending; the
/// connection's receiver writes the rest.
struct OpenRequest {
  std::string line;
  int trials = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t first_ns = 0;
  std::int64_t done_ns = 0;
  std::uint64_t successes = 0;
  bool error = false;
  bool sampled = false;
  std::vector<std::string> lines;  // kept for sampled requests only
};

/// A daemon and its client connections.
struct Daemon {
  std::unique_ptr<whisper::serve::LoopbackTransport> transport;
  std::unique_ptr<whisper::serve::Server> server;
  std::vector<std::unique_ptr<whisper::serve::LoopbackClient>> clients;

  Daemon(int jobs, std::size_t connections) {
    transport = std::make_unique<whisper::serve::LoopbackTransport>();
    server = std::make_unique<whisper::serve::Server>(
        *transport, whisper::serve::ServerOptions{.jobs = jobs});
    server->start();
    for (std::size_t c = 0; c < connections; ++c)
      clients.push_back(transport->connect());
  }
  ~Daemon() {
    server->stop();
    for (auto& c : clients) c->close();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

/// Result of one closed-loop segment.
struct ClosedLoop {
  std::size_t completed = 0;  // done lines inside the window
  std::size_t trials = 0;
  double seconds = 0.0;
  std::size_t errors = 0;
  std::size_t sent = 0;
};

/// Keep `outstanding` requests in flight on `client` until `end_ns`, then
/// drain. Counts only completions inside the window.
/// With `traced` set, every send also runs the traced parse mirror and
/// samples the queue depth, as the open loop does.
void closed_connection(whisper::serve::LoopbackClient& client,
                       const whisper::serve::Server& server, bool traced,
                       std::uint64_t seed, std::uint64_t first_id,
                       std::uint64_t id_stride, int outstanding,
                       std::int64_t end_ns, ClosedLoop& out) {
  std::uint64_t next_id = first_id;
  int in_flight = 0;
  const auto send_next = [&] {
    const std::string line = request_line(seed, next_id);
    client.send(line);
    if (traced) {
      (void)whisper::serve::parse_request(line);
      (void)server.queue_stats();
    }
    next_id += id_stride;
    ++in_flight;
    ++out.sent;
  };
  for (int i = 0; i < outstanding; ++i) send_next();
  std::string line;
  while (in_flight > 0) {
    if (client.recv_for(line, kReadTimeoutMs) !=
        whisper::serve::ReadStatus::kLine) {
      out.errors += static_cast<std::size_t>(in_flight);
      return;
    }
    Head h;
    if (!parse_head(line, h)) {
      ++out.errors;
      continue;
    }
    if (h.type != "done" && h.type != "error") continue;
    --in_flight;
    const std::int64_t t = now_ns();
    if (h.type == "error") ++out.errors;
    if (t <= end_ns && h.type == "done") {
      ++out.completed;
      out.trials += field_u64(line, "\"trials\":");
    }
    if (t < end_ns) send_next();
  }
}

ClosedLoop closed_loop(Daemon& d, bool traced, std::uint64_t seed,
                       std::uint64_t& next_id, int jobs, double seconds) {
  const std::size_t conns = d.clients.size();
  std::vector<ClosedLoop> parts(conns);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    const int k = jobs / static_cast<int>(conns) +
                  (static_cast<int>(c) < jobs % static_cast<int>(conns) ? 1 : 0);
    threads.emplace_back([&, c, k] {
      closed_connection(*d.clients[c], *d.server, traced, seed, next_id + c,
                        conns, k, end, parts[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoop out;
  out.seconds = static_cast<double>(end - start) * 1e-9;
  std::size_t max_sent = 0;
  for (const ClosedLoop& p : parts) {
    out.completed += p.completed;
    out.trials += p.trials;
    out.errors += p.errors;
    out.sent += p.sent;
    max_sent = std::max(max_sent, p.sent);
  }
  next_id += conns * (max_sent + 1);
  return out;
}

}  // namespace

void run_serve(const Args& args, Report& rep) {
  using whisper::serve::ReadStatus;
  const std::size_t conns = static_cast<std::size_t>(std::max(1, args.jobs - 1));

  // Set-up, timed from process start: start a daemon, connect, and warm its
  // shared machine pool and decode caches with a burst deep enough to keep
  // every worker busy at once.
  auto d = std::make_unique<Daemon>(args.jobs, conns);
  std::uint64_t warm_id = kWarmIdBase;
  const ClosedLoop warm =
      closed_loop(*d, false, args.seed, warm_id, 4 * args.jobs, 0.0);
  rep.check(warm.errors == 0, "serve: warm-up request failed");
  const double setup_s = now_s();
  if (args.setup_only) {
    rep.set("setup_s", setup_s, "s");
    return;
  }

  // --- Open loop ----------------------------------------------------------
  const double open_seconds = kOpenShare * args.seconds;
  const std::vector<double> arrivals =
      poisson_schedule(args.seed, kOfferedRps, open_seconds);
  std::vector<OpenRequest> reqs(arrivals.size());
  whisper::stats::Xoshiro256 pick(args.seed ^ 0x5a3b1eULL);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    reqs[i].line = request_line(args.seed, i + 1, &reqs[i].trials);
  for (std::size_t k = 0; k < kReplaySample && !reqs.empty(); ++k)
    reqs[pick.next_below(reqs.size())].sampled = true;

  const whisper::runner::MachinePoolStats pool0 = d->server->pool_stats();
  const std::int64_t start = now_ns() + 20'000'000;  // 20 ms lead
  for (std::size_t i = 0; i < reqs.size(); ++i)
    reqs[i].due_ns = start + static_cast<std::int64_t>(arrivals[i] * 1e9);

  std::vector<std::thread> receivers;
  std::vector<std::size_t> lost(conns, 0);
  for (std::size_t c = 0; c < conns; ++c)
    receivers.emplace_back([&, c] {
      std::size_t expect = 0;
      for (std::size_t i = c; i < reqs.size(); i += conns) ++expect;
      std::string line;
      while (expect > 0) {
        if (d->clients[c]->recv_for(line, kReadTimeoutMs) != ReadStatus::kLine) {
          lost[c] = expect;
          return;
        }
        const std::int64_t t = now_ns();
        Head h;
        if (!parse_head(line, h) || h.id == 0 || h.id > reqs.size()) {
          ++lost[c];
          continue;
        }
        OpenRequest& r = reqs[h.id - 1];
        if (r.first_ns == 0) r.first_ns = t;
        if (r.sampled) r.lines.push_back(line);
        if (h.type == "done" || h.type == "error") {
          r.done_ns = t;
          r.error = h.type == "error";
          r.successes = field_u64(line, "\"successes\":");
          --expect;
        }
      }
    });

  // The sender: each request leaves at its due time on connection i % conns.
  std::vector<double> parse_us;
  std::size_t depth_max = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    OpenRequest& r = reqs[i];
    while (now_ns() < r.due_ns)
      std::this_thread::sleep_for(std::chrono::nanoseconds(r.due_ns - now_ns()));
    r.sent_ns = now_ns();
    d->clients[i % conns]->send(r.line);
    if (args.trace) {
      // Traced mirror of the daemon's parse step, off the send path.
      const std::int64_t p0 = now_ns();
      (void)whisper::serve::parse_request(r.line);
      parse_us.push_back(static_cast<double>(now_ns() - p0) * 1e-3);
      depth_max = std::max(depth_max, d->server->queue_stats().depth);
    }
  }
  for (std::thread& t : receivers) t.join();

  std::vector<double> latency_ms, late_ms, first_ms, stream_ms;
  std::uint64_t trials = 0, successes = 0;
  for (const OpenRequest& r : reqs) {
    ++rep.attempted;
    if (r.done_ns == 0 || r.error) {
      ++rep.failed;
      continue;
    }
    trials += static_cast<std::uint64_t>(r.trials);
    successes += r.successes;
    latency_ms.push_back(static_cast<double>(r.done_ns - r.due_ns) * 1e-6);
    late_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
    first_ms.push_back(static_cast<double>(r.first_ns - r.sent_ns) * 1e-6);
    stream_ms.push_back(static_cast<double>(r.done_ns - r.first_ns) * 1e-6);
  }
  std::size_t lost_total = 0;
  for (const std::size_t l : lost) lost_total += l;
  rep.check(lost_total == 0 && rep.failed == 0,
            "serve: open-loop requests failed or went unanswered");

  // --- Closed loop --------------------------------------------------------
  // 2 × jobs requests stay outstanding, so every worker finds the next
  // request queued and the rate is the daemon's capacity, not the client's
  // round trip. Untraced: one window. Traced: alternate untraced and traced
  // quarters, the traced ones repeating the parse mirror and queue sampling
  // per request, for the tracing overhead.
  const double closed_seconds = args.seconds - open_seconds;
  std::uint64_t closed_id = kClosedIdBase;
  ClosedLoop plain, traced;
  const int segments = args.trace ? 4 : 1;
  for (int s = 0; s < segments; ++s) {
    const bool traced_segment = args.trace && s % 2 == 1;
    const ClosedLoop seg =
        closed_loop(*d, traced_segment, args.seed, closed_id, 2 * args.jobs,
                    closed_seconds / segments);
    ClosedLoop& acc = traced_segment ? traced : plain;
    acc.completed += seg.completed;
    acc.trials += seg.trials;
    acc.seconds += seg.seconds;
    acc.errors += seg.errors;
    rep.attempted += seg.sent;
    rep.failed += seg.errors;
  }
  rep.check(plain.errors == 0 && traced.errors == 0,
            "serve: closed-loop requests failed");
  const whisper::runner::MachinePoolStats pool1 = d->server->pool_stats();

  rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
  d.reset();
  // --- Replay: sampled streams against an in-process run -------------------
  const whisper::fault::FaultPlan no_faults;
  std::size_t replayed = 0;
  for (const OpenRequest& r : reqs) {
    if (!r.sampled || r.done_ns == 0) continue;
    const whisper::serve::Request req = whisper::serve::parse_request(r.line);
    std::vector<std::string> want;
    for (std::size_t i = 0; i < static_cast<std::size_t>(req.spec.trials); ++i)
      want.push_back(whisper::serve::response_trial(
          req.id, i,
          whisper::runner::run_scheduled_trial(req.spec, i, no_faults, false)));
    want.push_back(whisper::serve::response_done(
        req.id, whisper::runner::run(req.spec, 1)));
    rep.check(r.lines == want, "serve: response stream of request " +
                                   std::to_string(req.id) +
                                   " differs from its in-process replay");
    ++replayed;
  }

  const Percentile p99 = tail_percentile(latency_ms);
  char line[320];
  std::snprintf(line, sizeof line,
                "serve: %zu open-loop requests at %.0f/s offered over %.1f s; "
                "latency p50 %.3f ms, p%.2f %.3f ms (%zu samples, %zu beyond); "
                "closed loop (max_rps) %.1f req/s; %zu streams replayed",
                reqs.size(), kOfferedRps, open_seconds, median(latency_ms),
                p99.percentile, p99.value, p99.samples, p99.beyond,
                static_cast<double>(plain.completed) / plain.seconds, replayed);
  Report::note(line);

  if (!args.trace) {
    rep.set("setup_s", setup_s, "s");
    rep.set("trials_per_s", static_cast<double>(plain.trials) / plain.seconds,
            "1/s");
    rep.set("p50_ms", median(latency_ms), "ms");
    rep.set("p99_ms", p99.value, "ms");
    rep.set("success_ratio",
            static_cast<double>(successes) /
                static_cast<double>(std::max<std::uint64_t>(1, trials)),
            "ratio");
    return;
  }

  const auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const std::uint64_t created = pool1.created - pool0.created;
  const std::uint64_t reused = pool1.reused - pool0.reused;
  rep.set("serve.parse_us", mean(parse_us), "us");
  rep.set("serve.first_line_ms", mean(first_ms), "ms");
  rep.set("serve.stream_ms", mean(stream_ms), "ms");
  rep.set("serve.queue_depth_max", static_cast<double>(depth_max), "count");
  rep.set("serve.pool_waited", static_cast<double>(pool1.waited - pool0.waited),
          "count");
  rep.set("runner.pool_hit_ratio",
          static_cast<double>(reused) /
              static_cast<double>(std::max<std::uint64_t>(1, created + reused)),
          "ratio");
  rep.set("bench.late_ms", tail_percentile(late_ms).value, "ms");
  rep.set("bench.trace_overhead_ratio",
          1.0 - (static_cast<double>(traced.completed) / traced.seconds) /
                    (static_cast<double>(plain.completed) / plain.seconds),
          "ratio");

  // Spans: request (due -> done) over its send lateness, first line (queue
  // wait and first trial) and stream.
  SpanLog log;
  SpanLog::Buffer& buf = log.local();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const OpenRequest& r = reqs[i];
    if (r.done_ns == 0) continue;
    const int root = static_cast<int>(buf.spans.size());
    buf.spans.push_back({"serve.request", r.due_ns, r.done_ns, -1, i + 1});
    buf.spans.push_back({"bench.late", r.due_ns, r.sent_ns, root, i + 1});
    buf.spans.push_back({"serve.first_line", r.sent_ns, r.first_ns, root, i + 1});
    buf.spans.push_back({"serve.stream", r.first_ns, r.done_ns, root, i + 1});
  }
  note_shares("serve: open-loop request self time by span",
              log.self_seconds(false));
  if (!args.trace_out.empty() && !log.write_chrome_trace(args.trace_out))
    rep.fail("cannot write " + args.trace_out);
}

}  // namespace perfbench

// The `dist` workload: bulk sweeps sharded by client::SweepClient across
// two in-process loopback daemons with jobs/2 workers each.
//
// An operation runs a cc sweep and a v1 sweep at once, each from its own
// client thread, sized to take about the same host time, in few large
// chunks. Every merged stream must be byte-identical to the first merged
// stream of its spec, and that one to a local runner::run of the spec
// (invariant 13), computed once, untimed, after the timed phase. A traced
// run repeats each operation with SweepOptions::on_trial timestamps per
// endpoint.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/endpoint.h"
#include "client/sweep_client.h"
#include "client/wire.h"
#include "harness.h"
#include "runner/executor.h"
#include "runner/runner.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport_loopback.h"
#include "stats/rng.h"

namespace perfbench {

namespace {

constexpr std::size_t kEndpoints = 2;

/// One sweep of the cycle and the first stream the daemons merged for it.
struct Sweep {
  whisper::runner::RunSpec spec;
  int chunk = 1;
  std::vector<std::string> first_trials;
  std::string first_done;
};

/// In-process daemons, stopped (drain, then stop) on destruction.
struct Cluster {
  std::vector<std::unique_ptr<whisper::serve::LoopbackTransport>> transports;
  std::vector<std::unique_ptr<whisper::serve::Server>> servers;
  std::vector<std::shared_ptr<whisper::client::Endpoint>> endpoints;

  explicit Cluster(int jobs_per_daemon) {
    for (std::size_t i = 0; i < kEndpoints; ++i) {
      transports.push_back(std::make_unique<whisper::serve::LoopbackTransport>());
      servers.push_back(std::make_unique<whisper::serve::Server>(
          *transports.back(),
          whisper::serve::ServerOptions{.jobs = jobs_per_daemon}));
      servers.back()->start();
      endpoints.push_back(std::make_shared<whisper::client::LoopbackEndpoint>(
          *transports.back(), "loopback:" + std::to_string(i)));
    }
  }
  ~Cluster() {
    for (auto& s : servers) s->stop();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] whisper::runner::MachinePoolStats pool_stats() const {
    whisper::runner::MachinePoolStats sum;
    for (const auto& s : servers) {
      const whisper::runner::MachinePoolStats p = s->pool_stats();
      sum.created += p.created;
      sum.reused += p.reused;
      sum.waited += p.waited;
    }
    return sum;
  }
  [[nodiscard]] std::size_t queue_depth() const {
    std::size_t depth = 0;
    for (const auto& s : servers) depth += s->queue_stats().depth;
    return depth;
  }
};

/// Host timings of one traced sweep.
struct TracedSweep {
  std::vector<double> chunk_ms;
  std::vector<double> first_line_ms;  // chunk start -> its first trial line
  std::vector<double> stream_ms;      // first -> last trial line of a chunk
  std::vector<double> parse_us;
  double fold_ms = 0.0;
  double skew = 0.0;
  std::size_t depth_max = 0;
  whisper::client::SweepStats stats;
};

struct Outcome {
  whisper::client::SweepResult result;
  double seconds = 0.0;
};

Outcome run_sweep_op(const Sweep& s, const Cluster& c, SpanLog* log,
                     std::uint64_t trace, TracedSweep* traced) {
  whisper::client::SweepOptions opts;
  opts.chunk_trials = s.chunk;
  std::mutex mu;
  std::vector<std::vector<std::int64_t>> stamps(kEndpoints);
  std::size_t depth_max = 0;
  if (traced)
    opts.on_trial = [&](std::size_t endpoint, std::size_t) {
      const std::int64_t t = now_ns();
      const std::size_t depth = c.queue_depth();
      std::lock_guard<std::mutex> lock(mu);
      if (endpoint < stamps.size()) stamps[endpoint].push_back(t);
      depth_max = std::max(depth_max, depth);
    };
  whisper::client::SweepClient client(opts);
  const std::int64_t t0 = now_ns();
  const whisper::client::SweepResult r = client.sweep(s.spec, c.endpoints);
  const std::int64_t t1 = now_ns();

  Outcome out;
  out.result = r;
  out.seconds = static_cast<double>(t1 - t0) * 1e-9;
  if (!traced) return out;

  // Chunk k of an endpoint ends at its (k+1)*chunk-th stored trial and
  // starts where the previous one ended (or at the sweep start). Inside it,
  // the daemon's part splits at the chunk's first trial line: queue wait
  // plus the first trial, then the stream of the rest.
  SpanLog::Buffer& buf = log->local();
  const int root = static_cast<int>(buf.spans.size());
  buf.spans.push_back({"client.sweep", t0, t1, -1, trace});
  std::int64_t last = t0;
  const std::size_t chunk = static_cast<std::size_t>(s.chunk);
  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-6; };
  for (const std::vector<std::int64_t>& ts : stamps) {
    std::int64_t from = t0;
    for (std::size_t i = chunk - 1; i < ts.size(); i += chunk) {
      const std::int64_t first = ts[i + 1 - chunk];
      traced->chunk_ms.push_back(ms(ts[i] - from));
      traced->first_line_ms.push_back(ms(first - from));
      traced->stream_ms.push_back(ms(ts[i] - first));
      const int span = static_cast<int>(buf.spans.size());
      buf.spans.push_back({"client.chunk", from, ts[i], root, trace});
      buf.spans.push_back({"serve.first_line", from, first, span, trace});
      buf.spans.push_back({"serve.stream", first, ts[i], span, trace});
      from = ts[i];
    }
    if (!ts.empty()) last = std::max(last, ts.back());
  }
  // Traced mirror of the daemons' parse step on this sweep's requests.
  for (std::size_t k = 0; k * chunk < static_cast<std::size_t>(s.spec.trials);
       ++k) {
    const std::string line = whisper::client::run_request_json(
        k + 1, s.spec, k * chunk, s.chunk);
    const std::int64_t p0 = now_ns();
    (void)whisper::serve::parse_request(line);
    traced->parse_us.push_back(static_cast<double>(now_ns() - p0) * 1e-3);
  }
  buf.spans.push_back({"client.fold", last, t1, root, trace});
  traced->fold_ms = static_cast<double>(t1 - last) * 1e-6;
  const auto& by = r.stats.trials_by_endpoint;
  const auto [lo, hi] = std::minmax_element(by.begin(), by.end());
  traced->skew = by.empty() || *lo == 0
                     ? 0.0
                     : static_cast<double>(*hi) / static_cast<double>(*lo);
  traced->depth_max = depth_max;
  traced->stats = r.stats;
  return out;
}

}  // namespace

void run_dist(const Args& args, Report& rep) {
  const int per_daemon = std::max(1, args.jobs / static_cast<int>(kEndpoints));

  // The cycle: cc and v1 sweeps of about equal host time.
  std::vector<Sweep> cycle(2);
  const char* attacks[] = {"cc", "v1"};
  const int trials[] = {112, 16};
  const int chunks[] = {14, 2};
  for (std::size_t k = 0; k < cycle.size(); ++k) {
    whisper::runner::RunSpec& s = cycle[k].spec;
    s.model = whisper::uarch::CpuModel::KabyLakeI7_7700;
    s.attack = attacks[k];
    s.trials = trials[k];
    // Seeds stay below 2^53: the wire reads numbers as doubles.
    s.base_seed = whisper::stats::SplitMix64(args.seed ^ (k + 1)).next() >> 11;
    s.payload_seed =
        whisper::stats::SplitMix64(args.seed ^ (k + 101)).next() >> 11;
    s.payload_bytes = 2;
    s.batches = 0;  // the attack's own default batch count
    cycle[k].chunk = chunks[k];
  }

  // Set-up, timed from process start: start the daemons, give every worker
  // a pooled machine with one concurrent burst of single-trial requests per
  // daemon, and warm the decode caches with one sweep of each spec at two
  // chunks per endpoint.
  auto cluster = std::make_unique<Cluster>(per_daemon);
  for (auto& transport : cluster->transports) {
    const std::unique_ptr<whisper::serve::LoopbackClient> client =
        transport->connect();
    for (int i = 0; i < per_daemon; ++i)
      client->send(whisper::client::run_request_json(
          static_cast<std::uint64_t>(i + 1), cycle[0].spec, 0, 1));
    std::string line;
    int done = 0;
    while (done < per_daemon &&
           client->recv_for(line, 60000) == whisper::serve::ReadStatus::kLine)
      if (line.find("\"type\":\"done\"") != std::string::npos) ++done;
    rep.check(done == per_daemon, "dist: warm-up request unanswered");
    client->close();
  }
  for (const Sweep& sw : cycle) {
    whisper::client::SweepOptions opts;
    opts.chunk_trials = sw.chunk;
    whisper::runner::RunSpec warm = sw.spec;
    warm.trials = sw.chunk * static_cast<int>(2 * kEndpoints);
    const whisper::client::SweepResult r =
        whisper::client::SweepClient(opts).sweep(warm, cluster->endpoints);
    rep.check(r.complete, "dist: warm-up sweep incomplete");
  }
  const double setup_s = now_s();
  if (args.setup_only) {
    rep.set("setup_s", setup_s, "s");
    return;
  }

  SpanLog log;
  std::vector<double> op_ms;
  std::size_t plain_trials = 0, traced_trials = 0;
  double plain_s = 0, traced_s = 0;
  std::vector<TracedSweep> traced;
  // Every sweep must complete and merge the same stream as the first sweep
  // of its spec.
  const auto account = [&](Sweep& sw, const whisper::client::SweepResult& r,
                           const std::string& how) {
    rep.attempted += static_cast<std::uint64_t>(sw.spec.trials);
    if (!r.complete) {
      rep.failed += static_cast<std::uint64_t>(sw.spec.trials);
      rep.fail("dist: " + how + sw.spec.attack + " sweep incomplete: " +
               r.error);
    } else if (sw.first_done.empty()) {
      sw.first_trials = r.trial_lines;
      sw.first_done = r.done_line;
    } else {
      rep.check(r.trial_lines == sw.first_trials && r.done_line == sw.first_done,
                "dist: a repeated " + how + sw.spec.attack +
                    " sweep merged a different stream");
    }
  };
  // One operation runs every sweep of the cycle at once, each SweepClient
  // on its own thread. A daemon runs a request's trials in order on one
  // worker and a SweepClient keeps one request in flight per endpoint, so
  // one sweep alone would keep only one worker per daemon busy.
  const auto run_cycle = [&](SpanLog* tlog, std::uint64_t trace0,
                             std::vector<TracedSweep>* tout,
                             const std::string& how) {
    std::vector<Outcome> out(cycle.size());
    std::vector<TracedSweep> ts(cycle.size());
    const auto one = [&](std::size_t i) {
      out[i] = run_sweep_op(cycle[i], *cluster, tlog, trace0 + i,
                            tout ? &ts[i] : nullptr);
    };
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> threads;
    for (std::size_t i = 1; i < cycle.size(); ++i) threads.emplace_back(one, i);
    one(0);
    for (std::thread& t : threads) t.join();
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    for (std::size_t i = 0; i < cycle.size(); ++i)
      account(cycle[i], out[i].result, how);
    if (tout)
      for (TracedSweep& t : ts) tout->push_back(std::move(t));
    return seconds;
  };
  std::size_t trials_per_cycle = 0;
  for (const Sweep& sw : cycle)
    trials_per_cycle += static_cast<std::size_t>(sw.spec.trials);

  const whisper::runner::MachinePoolStats pool0 = cluster->pool_stats();
  const double start = now_s();
  for (std::size_t k = 0; op_ms.size() < 11 || now_s() - start < args.seconds;
       ++k) {
    const double seconds = run_cycle(nullptr, 0, nullptr, "");
    op_ms.push_back(seconds * 1e3);
    plain_s += seconds;
    plain_trials += trials_per_cycle;
    if (args.trace) {
      traced_s += run_cycle(&log, k * cycle.size() + 1, &traced, "traced ");
      traced_trials += trials_per_cycle;
    }
  }
  const double plain_rate = static_cast<double>(plain_trials) / plain_s;
  const whisper::runner::MachinePoolStats pool1 = cluster->pool_stats();
  rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
  cluster.reset();

  // Invariant 13: the merged streams equal a local run, made untimed now
  // that the daemons are gone.
  std::size_t successes = 0;
  {
    whisper::runner::Executor ex(args.jobs);
    for (const Sweep& sw : cycle) {
      const whisper::runner::RunResult r = whisper::runner::run(sw.spec, ex);
      rep.check(r.failed == 0, "dist: a local reference trial failed");
      rep.check(sw.first_trials == whisper::client::canonical_trial_lines(r) &&
                    sw.first_done == whisper::client::canonical_done_line(r),
                "dist: the merged " + sw.spec.attack +
                    " stream differs from the local run");
      successes += r.successes;
    }
  }
  const Percentile p99 = tail_percentile(op_ms);
  char line[256];
  std::snprintf(line, sizeof line,
                "dist: %zu operations of %zu concurrent sweeps over %zu "
                "endpoints (%d workers each); operation latency p50 %.3f ms, "
                "p%.1f %.3f ms (%zu samples, %zu beyond)",
                op_ms.size(), cycle.size(), kEndpoints, per_daemon,
                median(op_ms), p99.percentile, p99.value, p99.samples,
                p99.beyond);
  Report::note(line);

  if (!args.trace) {
    rep.set("setup_s", setup_s, "s");
    rep.set("trials_per_s", plain_rate, "1/s");
    rep.set("p50_ms", median(op_ms), "ms");
    rep.set("p99_ms", p99.value, "ms");
    rep.set("success_ratio",
            static_cast<double>(successes) /
                static_cast<double>(trials_per_cycle),
            "ratio");
    return;
  }

  std::vector<double> chunk_ms, first_line_ms, stream_ms, parse_us;
  double fold = 0, skew = 0;
  std::size_t depth_max = 0;
  for (const TracedSweep& t : traced) {
    chunk_ms.insert(chunk_ms.end(), t.chunk_ms.begin(), t.chunk_ms.end());
    first_line_ms.insert(first_line_ms.end(), t.first_line_ms.begin(),
                         t.first_line_ms.end());
    stream_ms.insert(stream_ms.end(), t.stream_ms.begin(), t.stream_ms.end());
    parse_us.insert(parse_us.end(), t.parse_us.begin(), t.parse_us.end());
    fold += t.fold_ms;
    skew += t.skew;
    depth_max = std::max(depth_max, t.depth_max);
  }
  const double n = static_cast<double>(traced.size());
  // SweepStats of the first traced cycle: fixed counts in a clean run.
  std::size_t requests = 0, reassigned = 0, duplicates = 0;
  for (std::size_t i = 0; i < cycle.size() && i < traced.size(); ++i) {
    requests += traced[i].stats.requests;
    reassigned += traced[i].stats.reassigned;
    duplicates += traced[i].stats.duplicate_trials;
  }
  const std::uint64_t created = pool1.created - pool0.created;
  const std::uint64_t reused = pool1.reused - pool0.reused;
  rep.set("client.chunk_ms.p50", median(chunk_ms), "ms");
  rep.set("client.chunk_ms.p99", tail_percentile(chunk_ms).value, "ms");
  rep.set("client.fold_ms", fold / n, "ms");
  rep.set("client.endpoint_skew", skew / n, "ratio");
  rep.set("client.requests", static_cast<double>(requests), "count");
  rep.set("client.reassigned", static_cast<double>(reassigned), "count");
  rep.set("client.duplicate_trials", static_cast<double>(duplicates), "count");
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  rep.set("serve.parse_us", mean(parse_us), "us");
  rep.set("serve.first_line_ms", mean(first_line_ms), "ms");
  rep.set("serve.stream_ms", mean(stream_ms), "ms");
  rep.set("serve.queue_depth_max", static_cast<double>(depth_max), "count");
  rep.set("serve.pool_waited", static_cast<double>(pool1.waited - pool0.waited),
          "count");
  rep.set("runner.pool_hit_ratio",
          static_cast<double>(reused) /
              static_cast<double>(std::max<std::uint64_t>(1, created + reused)),
          "ratio");
  rep.set("bench.trace_overhead_ratio",
          1.0 - (static_cast<double>(traced_trials) / traced_s) / plain_rate,
          "ratio");
  note_shares("dist: traced sweep self time by span", log.self_seconds(false));
  if (!args.trace_out.empty() && !log.write_chrome_trace(args.trace_out))
    rep.fail("cannot write " + args.trace_out);
}

}  // namespace perfbench

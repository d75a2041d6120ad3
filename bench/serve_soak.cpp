// serve_soak — the whisper_serve daemon under sustained concurrent load.
//
// Drives the full serving stack (loopback transport, so no sockets and no
// flaky fds) with N run requests spread over C concurrent client
// connections, every request carrying a PR-5-style seeded fault plan
// (throw + stall, varied per request) with retries enabled — the daemon
// must absorb injected faults mid-soak without losing a single response.
//
// Two phases run the identical batch:
//
//   phase A: --jobs J workers     (the concurrent configuration)
//   phase B: 1 worker             (the sequential reference)
//
// and the harness asserts, request by request:
//
//   * zero lost responses      — every request's stream terminates with
//                                its done line, exactly trials+1 lines
//   * zero duplicated responses— every (id, index) pair appears once
//   * zero residual failures   — every injected fault was retried to
//                                recovery (done lines report failed: 0)
//   * byte identity            — phase A and phase B produced identical
//                                bytes per request (invariant 11: worker
//                                count and interleaving cannot reach the
//                                wire)
//
// Results (wall time, throughput, retry counts, pool/queue accounting,
// per-client p50/p99 request latency measured send → terminal response,
// the identity verdict) are written to --json as BENCH_serve.json, which
// is validated with stats::json_is_valid before writing. Exit status is
// non-zero on any violated invariant, so this doubles as the tier-2
// `whisper_serve_soak` ctest entry.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport_loopback.h"
#include "stats/json.h"

using namespace whisper;

namespace {

struct SoakArgs {
  std::uint64_t requests = 2000;
  std::uint64_t clients = 4;
  int jobs = 4;
  std::size_t pool = 4;
  std::string json;
};

/// The deterministic request mix. Request r (0-based) gets id r+1, a cheap
/// attack rotated across the channel/kaslr families, 1–2 trials, and a
/// per-request seeded throw+stall fault plan (~6% throw, ~4% stall on the
/// first attempt; retries recover both classes).
struct Shape {
  std::uint64_t id = 0;
  int trials = 1;
  std::string line;
};

Shape shape_for(std::uint64_t r) {
  Shape s;
  s.id = r + 1;
  const char* attack = "cc";
  if (r % 13 == 0)
    attack = "kaslr";
  else if (r % 7 == 0)
    attack = "v1";
  s.trials = (r % 5 == 0 && r % 13 != 0) ? 2 : 1;
  const std::string plan = "throw~60@" + std::to_string(1000 + r) +
                           ";stall~40@" + std::to_string(2000 + r);
  s.line = "{\"id\":" + std::to_string(s.id) +
           ",\"verb\":\"run\",\"attack\":\"" + attack +
           "\",\"seed\":" + std::to_string(0x50a0 + r) +
           ",\"trials\":" + std::to_string(s.trials) +
           ",\"batches\":2,\"payload_bytes\":2" +
           ",\"retries\":2,\"trial_cycle_budget\":20000000" +
           ",\"fault_plan\":\"" + plan + "\"}";
  return s;
}

struct PhaseResult {
  int jobs = 0;
  double wall_seconds = 0.0;
  std::uint64_t responses = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t errors = 0;        // error-type response lines
  std::uint64_t failed_trials = 0;  // residual failures after retries
  std::uint64_t retried = 0;        // trials recovered by a retry
  runner::MachinePoolStats pool{};
  serve::SchedulerStats queue{};
  /// Response lines per request id, in arrival order.
  std::map<std::uint64_t, std::vector<std::string>> streams;
  /// Per-client request latencies (send → terminal response) in ms. Every
  /// client enqueues its whole share up front, so these measure latency
  /// under a saturated queue — queueing delay included, by design.
  std::vector<std::vector<double>> client_latency_ms;
};

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
double percentile_ms(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  std::size_t rank = static_cast<std::size_t>(p * static_cast<double>(
                                                      sample.size()));
  if (rank >= sample.size()) rank = sample.size() - 1;
  return sample[rank];
}

/// Run the full batch through a fresh server with `jobs` workers.
PhaseResult run_phase(const SoakArgs& args, int jobs) {
  PhaseResult out;
  out.jobs = jobs;
  serve::LoopbackTransport transport;
  serve::Server server(transport,
                       {.jobs = jobs, .pool_capacity = args.pool});
  server.start();

  const auto t0 = std::chrono::steady_clock::now();
  // One thread per client: connect, enqueue this client's share of the
  // batch (loopback sends never block, so the server's queue genuinely
  // fills up), then drain until the server delivers EOF.
  std::vector<std::thread> clients;
  std::vector<std::map<std::uint64_t, std::vector<std::string>>> collected(
      args.clients);
  out.client_latency_ms.resize(args.clients);
  for (std::uint64_t c = 0; c < args.clients; ++c) {
    clients.emplace_back([&, c] {
      auto client = transport.connect();
      std::map<std::uint64_t, std::chrono::steady_clock::time_point> sent;
      for (std::uint64_t r = c; r < args.requests; r += args.clients) {
        const Shape s = shape_for(r);
        sent[s.id] = std::chrono::steady_clock::now();
        client->send(s.line);
      }
      client->close_send();
      std::string line;
      while (client->recv(line)) {
        const stats::JsonValue doc = stats::json_parse(line);
        const std::uint64_t id =
            static_cast<std::uint64_t>(doc.get("id")->number);
        collected[c][id].push_back(line);
        const std::string& type = doc.get("type")->string;
        if (type == "done" || type == "error") {
          const auto it = sent.find(id);
          if (it != sent.end())
            out.client_latency_ms[c].push_back(
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - it->second)
                    .count());
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.pool = server.pool_stats();
  out.queue = server.queue_stats();
  server.stop();

  for (auto& per_client : collected)
    for (auto& [id, lines] : per_client) {
      auto& stream = out.streams[id];
      stream.insert(stream.end(), lines.begin(), lines.end());
      out.responses += lines.size();
    }

  // Account every request: exactly trials+1 lines, trial indices 0..t-1 in
  // order, a terminating done line with zero residual failures.
  for (std::uint64_t r = 0; r < args.requests; ++r) {
    const Shape s = shape_for(r);
    const auto it = out.streams.find(s.id);
    if (it == out.streams.end()) {
      out.lost += static_cast<std::uint64_t>(s.trials) + 1;
      continue;
    }
    const auto& lines = it->second;
    const std::size_t want = static_cast<std::size_t>(s.trials) + 1;
    if (lines.size() < want)
      out.lost += want - lines.size();
    else if (lines.size() > want)
      out.duplicated += lines.size() - want;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const stats::JsonValue doc = stats::json_parse(lines[i]);
      const std::string type = doc.get("type")->string;
      if (type == "error") {
        ++out.errors;
      } else if (type == "trial") {
        if (static_cast<std::size_t>(doc.get("index")->number) != i)
          ++out.duplicated;  // out-of-order or repeated index
        if (doc.get("attempts")->number > 1.0) ++out.retried;
      } else if (type == "done") {
        out.failed_trials +=
            static_cast<std::uint64_t>(doc.get("failed")->number);
        if (i + 1 != lines.size()) ++out.duplicated;  // done must be last
      }
    }
  }
  return out;
}

void write_phase_json(stats::JsonWriter& w, const PhaseResult& p,
                      std::uint64_t requests) {
  w.begin_object();
  w.key("jobs");
  w.value(p.jobs);
  w.key("requests");
  w.value(requests);
  w.key("responses");
  w.value(p.responses);
  w.key("lost");
  w.value(p.lost);
  w.key("duplicated");
  w.value(p.duplicated);
  w.key("errors");
  w.value(p.errors);
  w.key("failed_trials");
  w.value(p.failed_trials);
  w.key("retried_trials");
  w.value(p.retried);
  w.key("wall_seconds");
  w.value(p.wall_seconds);
  w.key("requests_per_second");
  w.value(p.wall_seconds > 0 ? static_cast<double>(requests) / p.wall_seconds
                             : 0.0);
  w.key("pool");
  w.begin_object();
  w.key("created");
  w.value(p.pool.created);
  w.key("reused");
  w.value(p.pool.reused);
  w.key("evicted");
  w.value(p.pool.evicted);
  w.key("quarantined");
  w.value(p.pool.quarantined);
  w.key("waited");
  w.value(p.pool.waited);
  w.key("capacity");
  w.value(static_cast<std::uint64_t>(p.pool.capacity));
  w.end_object();
  w.key("queue");
  w.begin_object();
  w.key("pushed");
  w.value(p.queue.pushed);
  w.key("popped");
  w.value(p.queue.popped);
  w.key("rejected");
  w.value(p.queue.rejected);
  w.end_object();
  w.key("latency_ms");
  w.begin_array();
  for (std::size_t c = 0; c < p.client_latency_ms.size(); ++c) {
    const auto& sample = p.client_latency_ms[c];
    w.begin_object();
    w.key("client");
    w.value(static_cast<std::uint64_t>(c));
    w.key("requests");
    w.value(static_cast<std::uint64_t>(sample.size()));
    w.key("p50");
    w.value(percentile_ms(sample, 0.50));
    w.key("p99");
    w.value(percentile_ms(sample, 0.99));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  SoakArgs args;
  stats::Flags flags("serve_soak");
  flags.value("requests", "N", "run requests in the batch (default 2000)",
              args.requests);
  flags.value("clients", "C", "concurrent client connections (default 4)",
              args.clients);
  flags.value("jobs", "J", "phase A worker threads (default 4)", args.jobs);
  flags.value("pool", "P", "shared machine-pool capacity (default 4)",
              args.pool);
  flags.value("json", "PATH", "write the trajectory (BENCH_serve.json)",
              args.json);
  flags.parse(argc, argv);
  args.requests = std::max<std::uint64_t>(args.requests, 1);
  args.clients = std::max<std::uint64_t>(args.clients, 1);
  args.jobs = std::max(args.jobs, 1);
  bench::heading("serve_soak — daemon soak: " + std::to_string(args.requests) +
                 " requests, " + std::to_string(args.clients) + " clients, " +
                 std::to_string(args.jobs) + " vs 1 workers");

  std::printf("\nphase A: %d workers ...\n", args.jobs);
  const PhaseResult a = run_phase(args, args.jobs);
  std::printf("  %.2fs  %.1f req/s  retried=%llu  pool reuse=%llu/%llu\n",
              a.wall_seconds,
              static_cast<double>(args.requests) / a.wall_seconds,
              static_cast<unsigned long long>(a.retried),
              static_cast<unsigned long long>(a.pool.reused),
              static_cast<unsigned long long>(a.pool.created + a.pool.reused));
  for (std::size_t c = 0; c < a.client_latency_ms.size(); ++c)
    std::printf("  client %zu: p50 %.1f ms  p99 %.1f ms  (%zu requests)\n", c,
                percentile_ms(a.client_latency_ms[c], 0.50),
                percentile_ms(a.client_latency_ms[c], 0.99),
                a.client_latency_ms[c].size());
  std::printf("phase B: 1 worker ...\n");
  const PhaseResult b = run_phase(args, 1);
  std::printf("  %.2fs  %.1f req/s  retried=%llu\n", b.wall_seconds,
              static_cast<double>(args.requests) / b.wall_seconds,
              static_cast<unsigned long long>(b.retried));

  // Byte identity per request across worker counts (invariant 11).
  std::uint64_t mismatched = 0;
  for (const auto& [id, lines] : a.streams) {
    const auto it = b.streams.find(id);
    if (it == b.streams.end() || it->second != lines) ++mismatched;
  }
  const bool identical =
      mismatched == 0 && a.streams.size() == b.streams.size();

  bench::subheading("verdict");
  const bool lossless = a.lost == 0 && b.lost == 0 && a.duplicated == 0 &&
                        b.duplicated == 0 && a.errors == 0 && b.errors == 0 &&
                        a.failed_trials == 0 && b.failed_trials == 0;
  const bool faults_fired = a.retried > 0 && b.retried > 0;
  std::printf("  %s zero lost/duplicated/errored responses "
              "(lost %llu/%llu dup %llu/%llu err %llu/%llu)\n",
              bench::mark(lossless), static_cast<unsigned long long>(a.lost),
              static_cast<unsigned long long>(b.lost),
              static_cast<unsigned long long>(a.duplicated),
              static_cast<unsigned long long>(b.duplicated),
              static_cast<unsigned long long>(a.errors),
              static_cast<unsigned long long>(b.errors));
  std::printf("  %s injected faults recovered in-soak (retried %llu trials)\n",
              bench::mark(faults_fired),
              static_cast<unsigned long long>(a.retried));
  std::printf("  %s %d-worker and 1-worker responses byte-identical "
              "(%llu mismatched requests)\n",
              bench::mark(identical), args.jobs,
              static_cast<unsigned long long>(mismatched));

  if (!args.json.empty()) {
    stats::JsonWriter w;
    w.begin_object();
    w.key("bench");
    w.value("serve_soak");
    w.key("requests");
    w.value(args.requests);
    w.key("clients");
    w.value(args.clients);
    w.key("fault_plan");
    w.value("throw~60@{1000+r};stall~40@{2000+r} (per-request seeds)");
    w.key("phases");
    w.begin_array();
    write_phase_json(w, a, args.requests);
    write_phase_json(w, b, args.requests);
    w.end_array();
    w.key("byte_identical");
    w.value(identical);
    w.key("mismatched_requests");
    w.value(mismatched);
    w.end_object();
    if (!stats::json_is_valid(w.str())) {
      std::fprintf(stderr, "serve_soak: generated invalid JSON (bug)\n");
      return 1;
    }
    std::FILE* f = std::fopen(args.json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "serve_soak: cannot open %s\n", args.json.c_str());
      return 1;
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\n(trajectory written to %s)\n", args.json.c_str());
  }

  return (lossless && faults_fired && identical) ? 0 : 1;
}

// dist_soak — the distributed sweep stack under scripted failure.
//
// Soaks invariant 13 (docs/ARCHITECTURE.md): a SweepClient merging one
// RunSpec off N whisper_serve daemons produces bytes identical to a local
// single-process runner::run — for any endpoint count and any failure
// schedule that completes. A defense-matrix subgrid ({cc, kaslr} ×
// {none, kpti}) runs each cell three ways over in-process loopback
// daemons (1, 2, 4 endpoints), then three adversarial scenarios ride on
// top:
//
//   * kill-mid-sweep   one of three daemons is killed by an on_trial hook
//                      after it has delivered its first trial; its chunks
//                      must be reassigned to the survivors (reassigned > 0,
//                      dead_endpoints >= 1) with zero trials lost.
//   * flaky-transport  every connection runs under a deterministic fault
//                      plan (drop@1;shortread@3;stall@5 over per-endpoint
//                      request ordinals) — torn writes, half-delivered
//                      lines, and a silent daemon, all recovered by
//                      reconnect and re-request.
//   * tcp-127.0.0.1    the same sweep over real TCP daemons on ephemeral
//                      loopback ports (skipped gracefully where TCP is
//                      unavailable), because byte-identity must not depend
//                      on the transport.
//
// Every scenario asserts completion and byte-identity against the cell's
// locally-computed reference stream; duplicates re-fetched after a failure
// are verified byte-equal by the client itself. The trajectory is written
// to --json as BENCH_dist.json (stats::json_is_valid-checked). Non-zero
// exit on any violation — this is the tier-2 `whisper_dist_soak` ctest.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "client/endpoint.h"
#include "client/sweep_client.h"
#include "client/wire.h"
#include "defense/defense.h"
#include "runner/runner.h"
#include "serve/server.h"
#include "serve/transport_loopback.h"
#include "serve/transport_socket.h"
#include "stats/json.h"

using namespace whisper;

namespace {

struct SoakArgs {
  int trials = 8;
  int chunk = 2;
  std::string json;
};

/// One grid cell and its locally-computed invariant-13 reference.
struct Cell {
  std::string name;
  runner::RunSpec spec;
  std::vector<std::string> want_trials;
  std::string want_done;
};

/// A pool of in-process daemons: one LoopbackTransport + Server per
/// endpoint, torn down drain-then-stop on destruction.
struct LoopbackCluster {
  std::vector<std::unique_ptr<serve::LoopbackTransport>> transports;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::shared_ptr<client::Endpoint>> endpoints;

  explicit LoopbackCluster(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      transports.push_back(std::make_unique<serve::LoopbackTransport>());
      servers.push_back(std::make_unique<serve::Server>(
          *transports.back(), serve::ServerOptions{}));
      servers.back()->start();
      endpoints.push_back(std::make_shared<client::LoopbackEndpoint>(
          *transports.back(), "loopback:" + std::to_string(i)));
    }
  }
  ~LoopbackCluster() {
    for (auto& s : servers) s->stop();
  }
};

struct Scenario {
  std::string name;
  std::string cell;
  std::size_t endpoints = 0;
  bool skipped = false;
  bool complete = false;
  bool byte_identical = false;
  std::size_t trials_received = 0;
  std::string error;
  client::SweepStats stats;
};

/// Run one sweep and grade it against the cell's reference bytes.
Scenario grade(const std::string& name, const Cell& cell,
               const std::vector<std::shared_ptr<client::Endpoint>>& eps,
               const client::SweepOptions& opts) {
  Scenario s;
  s.name = name;
  s.cell = cell.name;
  s.endpoints = eps.size();
  client::SweepClient sweeper(opts);
  const client::SweepResult r = sweeper.sweep(cell.spec, eps);
  s.complete = r.complete;
  s.trials_received = r.trials_received;
  s.error = r.error;
  s.stats = r.stats;
  s.byte_identical = r.complete && r.trial_lines == cell.want_trials &&
                     r.done_line == cell.want_done;
  return s;
}

void print_scenario(const Scenario& s) {
  if (s.skipped) {
    std::printf("  %-18s %-12s  skipped (%s)\n", s.name.c_str(),
                s.cell.c_str(), s.error.c_str());
    return;
  }
  std::printf(
      "  %s %-18s %-12s %zu endpoint(s): %zu trials, %zu req, "
      "%zu unreachable, %zu timeout, %zu reconnect, %zu reassigned, "
      "%zu dead, %zu dup%s%s\n",
      bench::mark(s.complete && s.byte_identical), s.name.c_str(),
      s.cell.c_str(), s.endpoints, s.trials_received, s.stats.requests,
      s.stats.unreachable, s.stats.timed_out, s.stats.reconnects,
      s.stats.reassigned, s.stats.dead_endpoints, s.stats.duplicate_trials,
      s.error.empty() ? "" : "  error: ", s.error.c_str());
}

void write_scenario_json(stats::JsonWriter& w, const Scenario& s) {
  w.begin_object();
  w.key("name");
  w.value(s.name);
  w.key("cell");
  w.value(s.cell);
  w.key("endpoints");
  w.value(static_cast<std::uint64_t>(s.endpoints));
  w.key("skipped");
  w.value(s.skipped);
  w.key("complete");
  w.value(s.complete);
  w.key("byte_identical");
  w.value(s.byte_identical);
  w.key("trials_received");
  w.value(static_cast<std::uint64_t>(s.trials_received));
  w.key("requests");
  w.value(static_cast<std::uint64_t>(s.stats.requests));
  w.key("unreachable");
  w.value(static_cast<std::uint64_t>(s.stats.unreachable));
  w.key("timed_out");
  w.value(static_cast<std::uint64_t>(s.stats.timed_out));
  w.key("reconnects");
  w.value(static_cast<std::uint64_t>(s.stats.reconnects));
  w.key("reassigned");
  w.value(static_cast<std::uint64_t>(s.stats.reassigned));
  w.key("dead_endpoints");
  w.value(static_cast<std::uint64_t>(s.stats.dead_endpoints));
  w.key("duplicate_trials");
  w.value(static_cast<std::uint64_t>(s.stats.duplicate_trials));
  w.key("error");
  w.value(s.error);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  SoakArgs args;
  stats::Flags flags("dist_soak");
  flags.value("trials", "T", "trials per grid cell (at least 4; default 8)",
              args.trials);
  flags.value("chunk", "C", "trials per run request (default 2)", args.chunk);
  flags.value("json", "PATH", "write the trajectory (BENCH_dist.json)",
              args.json);
  flags.parse(argc, argv);
  args.trials = std::max(args.trials, 4);
  args.chunk = std::max(args.chunk, 1);
  bench::heading("dist_soak — distributed sweep soak: " +
                 std::to_string(args.trials) + " trials/cell, chunk " +
                 std::to_string(args.chunk));

  // The subgrid and its local references (the right-hand side of
  // invariant 13, computed once per cell).
  std::vector<Cell> cells;
  for (const char* attack : {"cc", "kaslr"})
    for (const char* def : {"none", "kpti"}) {
      Cell c;
      c.name = std::string(attack) + "/" + def;
      c.spec.attack = attack;
      c.spec.trials = args.trials;
      c.spec.base_seed = 0xd157ULL;
      c.spec.batches = 2;
      c.spec.payload_bytes = 2;
      if (std::string(def) != "none")
        c.spec.defenses.push_back(defense::parse(def));
      const runner::RunResult local = runner::run(c.spec, 1);
      c.want_trials = client::canonical_trial_lines(local);
      c.want_done = client::canonical_done_line(local);
      cells.push_back(std::move(c));
    }

  client::SweepOptions base;
  base.chunk_trials = args.chunk;
  base.backoff_base_ms = 1;
  base.backoff_max_ms = 20;

  std::vector<Scenario> scenarios;

  // Healthy loopback pools: every cell × {1, 2, 4} endpoints.
  bench::subheading("loopback pools");
  for (const Cell& cell : cells)
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      LoopbackCluster cluster(n);
      scenarios.push_back(grade("loopback-" + std::to_string(n), cell,
                                cluster.endpoints, base));
      print_scenario(scenarios.back());
    }

  // Kill one of three daemons after its first delivered trial: its
  // remaining chunks must migrate to the survivors.
  bench::subheading("failure scenarios");
  Scenario kill_scenario;
  {
    LoopbackCluster cluster(3);
    auto lever = std::make_shared<client::KillSwitchEndpoint>(
        std::make_unique<client::LoopbackEndpoint>(*cluster.transports[1],
                                                   "loopback:1"));
    std::vector<std::shared_ptr<client::Endpoint>> eps = cluster.endpoints;
    eps[1] = lever;
    client::SweepOptions opts = base;
    opts.chunk_trials = 1;  // endpoint 1 owns several chunks to orphan
    opts.endpoint_failures = 2;
    opts.on_trial = [lever](std::size_t endpoint, std::size_t delivered) {
      if (endpoint == 1 && delivered >= 1) lever->kill();
    };
    kill_scenario = grade("kill-mid-sweep", cells[0], eps, opts);
    print_scenario(kill_scenario);
    scenarios.push_back(kill_scenario);
  }

  // Deterministic transport faults on every connection: request 1 of each
  // endpoint is dropped mid-write, request 3 arrives half-torn, request 5
  // stalls into the deadline.
  Scenario flaky_scenario;
  {
    LoopbackCluster cluster(2);
    client::SweepOptions opts = base;
    opts.chunk_trials = 1;  // enough requests per endpoint to hit the plan
    opts.flaky_plan = "drop@1;shortread@3;stall@5";
    opts.flaky_stall_ms = 20;
    flaky_scenario = grade("flaky-transport", cells[1], cluster.endpoints,
                           opts);
    print_scenario(flaky_scenario);
    scenarios.push_back(flaky_scenario);
  }

  // Same sweep over real TCP on 127.0.0.1 (ephemeral ports). Skipped, not
  // failed, where the platform has no TCP loopback.
  {
    Scenario tcp;
    tcp.name = "tcp-127.0.0.1";
    tcp.cell = cells[2].name;
    try {
      std::vector<std::unique_ptr<serve::TcpTransport>> transports;
      std::vector<std::unique_ptr<serve::Server>> servers;
      std::vector<std::shared_ptr<client::Endpoint>> eps;
      for (int i = 0; i < 2; ++i) {
        transports.push_back(
            std::make_unique<serve::TcpTransport>("127.0.0.1:0"));
        servers.push_back(std::make_unique<serve::Server>(
            *transports.back(), serve::ServerOptions{}));
        servers.back()->start();
        eps.push_back(client::make_endpoint(client::parse_endpoint(
            "tcp:" + transports.back()->address())));
      }
      tcp = grade("tcp-127.0.0.1", cells[2], eps, base);
      for (auto& s : servers) s->stop();
    } catch (const std::exception& e) {
      tcp.skipped = true;
      tcp.error = e.what();
    }
    print_scenario(tcp);
    scenarios.push_back(tcp);
  }

  // The verdict: every non-skipped scenario completed with the reference
  // bytes; the kill scenario actually exercised reassignment; nothing was
  // lost anywhere.
  bench::subheading("verdict");
  bool all_identical = true;
  bool none_lost = true;
  for (const Scenario& s : scenarios) {
    if (s.skipped) continue;
    if (!s.complete || !s.byte_identical) all_identical = false;
    if (s.trials_received != static_cast<std::size_t>(args.trials))
      none_lost = false;
  }
  const bool kill_exercised = kill_scenario.stats.reassigned > 0 &&
                              kill_scenario.stats.dead_endpoints >= 1;
  const bool flaky_exercised = flaky_scenario.stats.reconnects > 0 &&
                               flaky_scenario.stats.timed_out > 0;
  std::printf("  %s every scenario byte-identical to its local reference "
              "(invariant 13)\n",
              bench::mark(all_identical));
  std::printf("  %s zero trials lost or left unmerged\n",
              bench::mark(none_lost));
  std::printf("  %s kill-mid-sweep reassigned orphaned chunks "
              "(reassigned=%zu, dead=%zu)\n",
              bench::mark(kill_exercised), kill_scenario.stats.reassigned,
              kill_scenario.stats.dead_endpoints);
  std::printf("  %s flaky transport recovered by reconnect "
              "(reconnects=%zu, timeouts=%zu, duplicates=%zu)\n",
              bench::mark(flaky_exercised), flaky_scenario.stats.reconnects,
              flaky_scenario.stats.timed_out,
              flaky_scenario.stats.duplicate_trials);

  const bool ok =
      all_identical && none_lost && kill_exercised && flaky_exercised;

  if (!args.json.empty()) {
    stats::JsonWriter w;
    w.begin_object();
    w.key("bench");
    w.value("dist_soak");
    w.key("trials");
    w.value(static_cast<std::uint64_t>(args.trials));
    w.key("chunk");
    w.value(static_cast<std::uint64_t>(args.chunk));
    w.key("scenarios");
    w.begin_array();
    for (const Scenario& s : scenarios) write_scenario_json(w, s);
    w.end_array();
    w.key("verdict");
    w.begin_object();
    w.key("byte_identical");
    w.value(all_identical);
    w.key("none_lost");
    w.value(none_lost);
    w.key("kill_exercised");
    w.value(kill_exercised);
    w.key("flaky_exercised");
    w.value(flaky_exercised);
    w.key("ok");
    w.value(ok);
    w.end_object();
    w.end_object();
    if (!stats::json_is_valid(w.str())) {
      std::fprintf(stderr, "dist_soak: generated invalid JSON (bug)\n");
      return 1;
    }
    if (!stats::write_text_file(args.json, w.str() + "\n")) return 1;
    std::printf("\n(trajectory written to %s)\n", args.json.c_str());
  }

  return ok ? 0 : 1;
}

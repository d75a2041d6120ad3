// SweepClient: fault-tolerant fan-out of one RunSpec across N daemons.
//
// The paper's sweep grids are embarrassingly parallel, so the distribution
// problem is purely a reliability problem: shard the trial range across
// endpoints, survive every way a box can fail (unreachable, hung, torn
// connection, killed mid-sweep), and still produce bytes indistinguishable
// from a local runner::run. Concretely:
//
//   * Trials are cut into fixed-size chunks; chunk c starts on endpoint
//     c % N. Each endpoint gets one worker thread and one connection. The
//     worker dials (with a connect timeout) and pings: the pong's
//     "workers" is the daemon's worker count W (1 when absent). It then
//     keeps up to W chunks in flight, one run request per chunk using the
//     trial_first shard window, so a single sweep keeps every daemon
//     worker busy (a daemon runs one request on one worker, invariant
//     11). Response lines are routed to their chunk by id; each chunk's
//     deadline runs from its send or its latest line.
//   * A tear, a timeout or a line whose id is not in flight drops the
//     connection; the in-flight chunks go back to the front of the home
//     queue, in order. Failures back off exponentially with seeded
//     deterministic jitter and reconnect. After `endpoint_failures`
//     consecutive failures (one per torn connection or failed dial) the
//     endpoint is declared dead and every chunk it still owns goes to a
//     reassignment queue that surviving workers drain — the sweep
//     completes as long as one endpoint lives, and the failures become
//     counters (unreachable / timed_out / reassigned / reconnects), not
//     aborts.
//   * Trials merge by absolute index. A re-fetched chunk may deliver a
//     trial twice: the duplicate must be byte-identical to the stored
//     line (anything else is a determinism violation and fails the sweep
//     loudly). The merged stream — trial lines in index order plus a
//     done line folded with the runner's own merge accounting — is
//     byte-identical to single-process runner::run for ANY endpoint
//     count and ANY failure schedule that completes: invariant 13,
//     pinned by tests/test_dist.cpp and soaked by bench/dist_soak.
//   * An optional flaky plan (fault grammar, drop/shortread/stall kinds)
//     wraps every dialed connection in a FlakyConnection after its ping,
//     so all of the above is exercised deterministically, without real
//     packet loss, and the plan's request ordinals count run requests only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/endpoint.h"
#include "runner/runner.h"

namespace whisper::client {

struct SweepOptions {
  /// Trials per request. Small chunks spread load and shrink the re-run
  /// window after a failure; large chunks amortize request overhead.
  int chunk_trials = 4;
  /// Per-request response deadline in ms (< 0 = wait forever), kept per
  /// in-flight chunk. A chunk's clock restarts on each of its lines, so a
  /// healthy long run never trips it — only a silent daemon does.
  int deadline_ms = 60'000;
  /// Connect timeout per dial in ms (< 0 = block).
  int connect_timeout_ms = 2'000;
  /// Consecutive failures (dial, timeout, torn stream) after which an
  /// endpoint is declared dead and its chunks are reassigned.
  int endpoint_failures = 3;
  /// Exponential backoff between an endpoint's retries: base * 2^attempt,
  /// capped, scaled by a deterministic jitter factor in [0.5, 1) seeded
  /// from (jitter_seed, endpoint, attempt).
  int backoff_base_ms = 5;
  int backoff_max_ms = 250;
  std::uint64_t jitter_seed = 0x5eedULL;
  /// Flaky-transport plan (drop/shortread/stall; fault grammar) applied
  /// to every connection, with per-endpoint request ordinals as
  /// coordinates. Empty = no injection.
  std::string flaky_plan;
  /// How long an injected stall burns before reporting timeout.
  int flaky_stall_ms = 50;
  /// Progress hook, called outside the sweep lock after each newly stored
  /// trial: (endpoint index, trials stored via that endpoint so far).
  /// Tests use it to fire kill switches at scripted points.
  std::function<void(std::size_t, std::size_t)> on_trial;
};

struct SweepStats {
  std::size_t requests = 0;          // run requests written (incl. retries;
                                     // the per-dial ping is not one)
  std::size_t unreachable = 0;       // dials that threw DialError
  std::size_t timed_out = 0;         // requests that hit the deadline
  std::size_t reconnects = 0;        // live connections torn down and redialed
  std::size_t reassigned = 0;        // chunks executed off their home endpoint
  std::size_t dead_endpoints = 0;    // endpoints declared dead
  std::size_t duplicate_trials = 0;  // re-received lines (all verified equal)
  std::vector<std::size_t> trials_by_endpoint;
};

struct SweepResult {
  /// Every trial received and no fatal error. A false with an empty
  /// error() means every endpoint died with work outstanding.
  bool complete = false;
  std::size_t trials_received = 0;
  /// Canonical (id 0) trial lines by absolute index; empty slots for
  /// trials never received. With complete == true this plus done_line is
  /// the invariant-13 surface.
  std::vector<std::string> trial_lines;
  /// Canonical merged done line; empty unless complete.
  std::string done_line;
  /// First fatal error (server refusal, determinism violation), if any.
  std::string error;
  SweepStats stats;
};

class SweepClient {
 public:
  explicit SweepClient(SweepOptions opts = {});

  /// Shard spec.trials across `endpoints` and merge by index. Blocks
  /// until complete, fatal, or every endpoint is dead. Throws
  /// std::invalid_argument for specs that fail runner::validate() or
  /// cannot cross the wire; endpoint failures never throw.
  [[nodiscard]] SweepResult sweep(
      const runner::RunSpec& spec,
      const std::vector<std::shared_ptr<Endpoint>>& endpoints);

 private:
  SweepOptions opts_;
};

}  // namespace whisper::client

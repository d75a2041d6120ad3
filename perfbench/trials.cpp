// The `sweep` and `matrix` workloads: runner traffic on one persistent
// Executor.
//
// Both cycle through a fixed list of operations made from the seed. A
// `sweep` operation is one runner::run of one registry attack (the paper's
// §4.1 / Table 2 sweep on one CPU preset); a `matrix` operation is one
// runner::run_many over a block of single-trial defense-matrix cells. An
// untraced run times the operations as they are. A traced run alternates
// whole cycles: untraced ones, the first of which gives the reference
// trials, and traced ones, which run each operation only through the public
// per-trial calls (MachinePool::acquire, os::Machine::reset,
// runner::run_trial) with spans around each and check it gives the
// reference trials. Each traced operation thus follows a different
// operation, as each timed one does, so the pools are as warm.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "defense/defense.h"
#include "harness.h"
#include "noise/noise.h"
#include "runner/executor.h"
#include "runner/machine_pool.h"
#include "runner/runner.h"
#include "stats/rng.h"
#include "uarch/config.h"

namespace perfbench {

namespace {

using whisper::runner::RunSpec;

/// The per-trial outputs a host-only change must leave unchanged.
struct Fingerprint {
  std::uint64_t cycles = 0;
  std::size_t probes = 0;
  bool success = false;
  bool ok = false;  // the trial produced a result

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// One trial of a traced operation, with its host timings.
struct TracedTrial {
  Fingerprint fp;
  std::string error;
  bool created = false;  // the acquire constructed a machine
  int thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t acquire_ns = 0;
  std::int64_t reset_ns = 0;
  std::int64_t run_ns = 0;  // runner::run_trial, which resets again first
  std::int64_t end_ns = 0;
  std::uint64_t decode_hits = 0;
  std::uint64_t decode_misses = 0;

  void capture_unhandled(const std::string& what) { error = what; }
  [[nodiscard]] std::int64_t attack_ns() const {
    return std::max<std::int64_t>(0, run_ns - reset_ns);
  }
};

/// A fixed list of specs run as one operation.
struct Op {
  std::vector<RunSpec> specs;
};

struct Workload {
  std::string name;
  std::vector<Op> cycle;
  /// What each set-up runs to warm the executor's thread-local pools.
  std::vector<Op> warmup;
  /// Stop only at a cycle boundary (`sweep`, whose operations differ by
  /// attack), or after any operation (`matrix`, whose blocks are alike).
  bool whole_cycles = false;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  return whisper::stats::SplitMix64(seed ^ (k * 0x9e3779b97f4a7c15ULL)).next();
}

/// `sweep`: every registry attack on Kaby Lake, noise off, no defense, at
/// the attacks' own batch counts. Trial counts give every attack about the
/// same host time (one rewind trial, about 0.4 s, per worker), so each
/// attack holds about a seventh of it and the operations take alike.
Workload sweep_workload(std::uint64_t seed, int jobs) {
  static const std::array<std::pair<const char*, int>, 7> kMix = {{
      {"cc", 184}, {"md", 116}, {"zbl", 116}, {"rsb", 200},
      {"v1", 28}, {"rewind", 4}, {"kaslr", 160},
  }};
  Workload w;
  w.name = "sweep";
  for (std::size_t k = 0; k < kMix.size(); ++k) {
    RunSpec s;
    s.model = whisper::uarch::CpuModel::KabyLakeI7_7700;
    s.attack = kMix[k].first;
    s.trials = kMix[k].second;
    s.base_seed = mix(seed, k);
    s.payload_seed = mix(seed, k + 100);
    s.payload_bytes = 2;
    s.batches = 0;  // every attack at its own default batch count
    w.cycle.push_back(Op{{s}});
    s.trials = jobs;  // about one trial per worker warms its pool
    w.warmup.push_back(Op{{s}});
  }
  w.whole_cycles = true;
  return w;
}

/// `matrix`: cheap attacks × every defense stack × the 5 CPU presets ×
/// noise {off, desktop}, one trial per cell at one batch (one KASLR round),
/// shuffled by the seed into blocks of 20 cells.
Workload matrix_workload(std::uint64_t seed) {
  std::vector<std::string> stacks = {"none"};
  for (const std::string& d : whisper::defense::defense_names())
    stacks.push_back(d);
  stacks.push_back("kpti+flare+fgkaslr");
  stacks.push_back("lfence+window:depth=8+retpoline+flushclear");
  const whisper::noise::NoiseProfile noises[] = {
      whisper::noise::NoiseProfile::off(),
      whisper::noise::NoiseProfile::desktop()};

  std::vector<RunSpec> cells;
  for (const char* attack : {"cc", "md", "zbl", "kaslr"})
    for (const std::string& stack : stacks)
      for (const whisper::uarch::CpuModel model : whisper::uarch::all_models())
        for (const whisper::noise::NoiseProfile& noise : noises) {
          RunSpec s;
          s.model = model;
          s.attack = attack;
          s.defenses = whisper::defense::parse_list(stack);
          s.noise = noise;
          s.trials = 1;
          s.base_seed = mix(seed, cells.size());
          s.payload_seed = mix(seed, cells.size() + 100000);
          s.payload_bytes = 2;
          s.batches = 1;  // one KASLR round
          cells.push_back(std::move(s));
        }
  whisper::stats::Xoshiro256 rng(seed);
  for (std::size_t i = cells.size(); i > 1; --i)
    std::swap(cells[i - 1], cells[rng.next_below(i)]);

  constexpr std::size_t kBlock = 20;
  Workload w;
  w.name = "matrix";
  for (std::size_t i = 0; i < cells.size(); i += kBlock) {
    Op op;
    for (std::size_t j = i; j < std::min(cells.size(), i + kBlock); ++j)
      op.specs.push_back(cells[j]);
    w.cycle.push_back(std::move(op));
  }
  w.warmup.push_back(w.cycle.front());
  return w;
}

std::vector<Fingerprint> fingerprints(
    const std::vector<whisper::runner::RunResult>& results) {
  std::vector<Fingerprint> out;
  for (const whisper::runner::RunResult& r : results)
    for (std::size_t i = 0; i < r.trials.size(); ++i)
      out.push_back({r.trials[i].cycles, r.trials[i].probes,
                     r.trials[i].success, r.outcomes[i].ok});
  return out;
}

/// One untraced execution of an operation.
struct UntracedOp {
  double seconds = 0.0;
  double merge_seconds = 0.0;  // host time outside RunResult::wall_seconds
  std::vector<Fingerprint> trials;
};

UntracedOp run_untraced(const Op& op, whisper::runner::Executor& ex) {
  const std::int64_t t0 = now_ns();
  std::vector<whisper::runner::RunResult> results;
  if (op.specs.size() == 1)
    results.push_back(whisper::runner::run(op.specs.front(), ex));
  else
    results = whisper::runner::run_many(op.specs, ex);
  UntracedOp out;
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  out.merge_seconds =
      std::max(0.0, out.seconds - (results.empty() ? 0.0
                                                   : results[0].wall_seconds));
  out.trials = fingerprints(results);
  return out;
}

/// One trial driven through the public per-trial calls, with the seed and
/// payload stream run_scheduled_trial would give trial `index`.
TracedTrial traced_trial(const RunSpec& spec, std::size_t index, SpanLog& log,
                         std::uint64_t trace) {
  const std::int64_t t0 = now_ns();
  RunSpec per = spec;
  per.payload_seed = spec.payload_seed ^ index;
  const std::uint64_t seed = whisper::runner::trial_seed(spec.base_seed, index);
  whisper::runner::MachinePool& pool =
      whisper::runner::MachinePool::this_thread();
  SpanLog::Buffer& buf = log.local();
  const std::uint64_t created_before = pool.stats().created;

  const std::int64_t ta = now_ns();
  whisper::runner::MachinePool::Lease lease = pool.acquire(per, seed);
  const std::int64_t tr = now_ns();
  whisper::os::Machine& m = lease.machine();
  m.reset(seed);
  const std::int64_t tk = now_ns();
  const auto dc0 = m.core().decode_cache_stats();
  const whisper::runner::TrialResult r = whisper::runner::run_trial(per, seed, m);
  const std::int64_t te = now_ns();
  const auto dc1 = m.core().decode_cache_stats();

  TracedTrial t;
  t.thread = buf.thread;
  t.created = pool.stats().created != created_before;
  t.fp = {r.cycles, r.probes, r.success, true};
  t.start_ns = t0;
  t.acquire_ns = tr - ta;
  t.reset_ns = tk - tr;
  t.run_ns = te - tk;
  t.decode_hits = dc1.hits - dc0.hits;
  t.decode_misses = dc1.misses - dc0.misses;
  t.end_ns = now_ns();

  // The trial span's self time is the runner-side bookkeeping around the
  // three calls. run_trial resets the machine again before the attack; that
  // reset is charged to os at the duration of the explicit one above.
  const int root = static_cast<int>(buf.spans.size());
  buf.spans.push_back({"runner.trial", t0, t.end_ns, -1, trace});
  buf.spans.push_back(
      {t.created ? "os.construct" : "runner.acquire", ta, tr, root, trace});
  buf.spans.push_back({"os.reset", tr, tk, root, trace});
  buf.spans.push_back({"core.run_trial", tk, te, root, trace});
  buf.spans.push_back(
      {"os.reset", tk, std::min(te, tk + t.reset_ns), root + 3, trace});
  return t;
}

/// One traced execution of an operation: the same (spec, trial) task list
/// run_many flattens, fanned out over the same executor.
struct TracedOp {
  double seconds = 0.0;
  std::int64_t tail_idle_ns = 0;
  std::vector<std::string> attacks;  // per trial
  std::vector<TracedTrial> trials;
};

TracedOp run_traced(const Op& op, whisper::runner::Executor& ex, SpanLog& log,
                    std::uint64_t& next_trace) {
  std::vector<std::pair<std::size_t, std::size_t>> tasks;
  for (std::size_t s = 0; s < op.specs.size(); ++s)
    for (int i = 0; i < op.specs[s].trials; ++i)
      tasks.emplace_back(s, static_cast<std::size_t>(i));
  const std::uint64_t trace0 = next_trace;
  next_trace += tasks.size();

  TracedOp out;
  const std::int64_t t0 = now_ns();
  out.trials = ex.map(tasks.size(), [&](std::size_t k) {
    return traced_trial(op.specs[tasks[k].first], tasks[k].second, log,
                        trace0 + k);
  });
  const std::int64_t t1 = now_ns();
  out.seconds = static_cast<double>(t1 - t0) * 1e-9;
  for (const auto& [s, i] : tasks) out.attacks.push_back(op.specs[s].attack);

  // Tail idle: how long the last worker ran alone after every other worker
  // finished its final trial of this operation.
  std::vector<std::pair<int, std::int64_t>> last_end;  // (thread, end)
  for (const TracedTrial& t : out.trials) {
    auto it = std::find_if(last_end.begin(), last_end.end(),
                           [&](const auto& p) { return p.first == t.thread; });
    if (it == last_end.end())
      last_end.emplace_back(t.thread, t.end_ns);
    else
      it->second = std::max(it->second, t.end_ns);
  }
  std::vector<std::int64_t> ends;
  for (const auto& p : last_end) ends.push_back(p.second);
  std::sort(ends.begin(), ends.end());
  if (!ends.empty())
    out.tail_idle_ns = ends.back() - (ends.size() > 1 ? ends[ends.size() - 2] : t0);
  return out;
}

void run_trials_workload(const Workload& w, const Args& args, Report& rep) {
  using whisper::runner::Executor;

  // Set-up: a fresh Executor (fresh threads, so cold thread-local machine
  // pools) and a warm-up pass, timed from process start.
  auto ex = std::make_unique<Executor>(args.jobs);
  for (const Op& op : w.warmup)
    for (const Fingerprint& f : run_untraced(op, *ex).trials)
      rep.check(f.ok, w.name + ": a warm-up trial failed");
  const double setup_s = now_s();
  if (args.setup_only) {
    rep.set("setup_s", setup_s, "s");
    return;
  }

  SpanLog log;
  std::uint64_t next_trace = 1;
  const std::size_t n_ops = w.cycle.size();
  std::vector<std::vector<Fingerprint>> reference(n_ops);
  std::vector<double> op_ms;
  std::vector<double> merge_ms;
  std::vector<TracedOp> traced;
  std::vector<bool> traced_seen(n_ops, false);
  std::size_t untraced_trials = 0, traced_trials = 0;
  double untraced_seconds = 0.0, traced_seconds = 0.0;

  // Untraced: at least one full cycle (the exact counts below cover one)
  // and eleven operations (so the tail rule has a percentile), then until
  // --seconds. Traced: whole cycles alternate, untraced first (for the
  // reference trials) and traced next, so the two rates behind the
  // tracing overhead come from interleaved stretches of time.
  const std::size_t min_ops =
      args.trace ? 2 * n_ops : std::max<std::size_t>(n_ops, 11);
  const double start = now_s();
  for (std::size_t k = 0;; ++k) {
    if (k >= min_ops && (!w.whole_cycles || k % n_ops == 0) &&
        now_s() - start >= args.seconds)
      break;
    const std::size_t idx = k % n_ops;
    const Op& op = w.cycle[idx];

    if (!args.trace || (k / n_ops) % 2 == 0) {
      UntracedOp u = run_untraced(op, *ex);
      untraced_trials += u.trials.size();
      untraced_seconds += u.seconds;
      op_ms.push_back(u.seconds * 1e3);
      merge_ms.push_back(u.merge_seconds * 1e3);
      rep.attempted += u.trials.size();
      for (const Fingerprint& f : u.trials) rep.failed += f.ok ? 0 : 1;
      if (reference[idx].empty()) reference[idx] = u.trials;
      else
        rep.check(u.trials == reference[idx],
                  w.name + ": a repeated operation gave different trials");
      continue;
    }

    TracedOp t = run_traced(op, *ex, log, next_trace);
    rep.attempted += t.trials.size();
    std::vector<Fingerprint> fps;
    for (const TracedTrial& tt : t.trials) {
      fps.push_back(tt.fp);
      rep.failed += tt.error.empty() ? 0 : 1;
      if (!tt.error.empty()) rep.fail(w.name + ": traced trial threw: " + tt.error);
    }
    rep.check(fps == reference[idx],
              w.name + ": a traced trial differs from its untraced run");
    traced_trials += t.trials.size();
    traced_seconds += t.seconds;
    traced_seen[idx] = true;
    traced.push_back(std::move(t));
  }
  rep.check(rep.failed == 0, w.name + ": " + std::to_string(rep.failed) +
                                 " scheduled trials failed");

  const double untraced_rate =
      static_cast<double>(untraced_trials) / untraced_seconds;
  rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
  ex.reset();
  // Full-cycle counts: exact, and the same on every cycle.
  std::size_t cycle_trials = 0, cycle_successes = 0;
  std::uint64_t cycle_cycles = 0, cycle_probes = 0;
  std::map<std::string, double> attack_seconds;
  for (std::size_t i = 0; i < n_ops; ++i) {
    for (const Fingerprint& f : reference[i]) {
      ++cycle_trials;
      cycle_successes += f.success ? 1 : 0;
      cycle_cycles += f.cycles;
      cycle_probes += f.probes;
    }
  }
  const double cycles_per_trial =
      static_cast<double>(cycle_cycles) / static_cast<double>(cycle_trials);
  const double probes_per_trial =
      static_cast<double>(cycle_probes) / static_cast<double>(cycle_trials);
  const double success_ratio =
      static_cast<double>(cycle_successes) / static_cast<double>(cycle_trials);
  const Percentile p99 = tail_percentile(op_ms);
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %zu untraced operations (%zu trials per cycle), op latency "
                "p50 %.3f ms, p%.1f %.3f ms over %zu samples (%zu beyond)",
                w.name.c_str(), op_ms.size(), cycle_trials, median(op_ms),
                p99.percentile, p99.value, p99.samples, p99.beyond);
  Report::note(line);
  std::snprintf(line, sizeof line,
                "%s: success_ratio %zu/%zu, sim cycles/trial %.3f, "
                "probes/trial %.3f",
                w.name.c_str(), cycle_successes, cycle_trials,
                cycles_per_trial, probes_per_trial);
  Report::note(line);
  if (w.name == "sweep") {
    std::string per_attack = "sweep: successes per attack:";
    for (std::size_t i = 0; i < w.cycle.size(); ++i) {
      std::size_t ok = 0;
      for (const Fingerprint& f : reference[i]) ok += f.success ? 1 : 0;
      per_attack += " " + w.cycle[i].specs[0].attack + "=" +
                    std::to_string(ok) + "/" +
                    std::to_string(reference[i].size());
    }
    Report::note(per_attack);
    // Host time per attack in the untraced operations (one attack each).
    for (std::size_t i = 0; i < op_ms.size(); ++i)
      attack_seconds[w.cycle[i % w.cycle.size()].specs[0].attack] +=
          op_ms[i] * 1e-3;
    note_shares("sweep: host-time share per attack (untraced)",
                attack_seconds);
  }

  if (!args.trace) {
    rep.set("setup_s", setup_s, "s");
    rep.set("trials_per_s", untraced_rate, "1/s");
    rep.set("p50_ms", median(op_ms), "ms");
    rep.set("p99_ms", p99.value, "ms");
    rep.set("success_ratio", success_ratio, "ratio");
    return;
  }

  // --- Per-layer metrics from the traced operations ----------------------
  std::size_t n = 0, constructs = 0, decode_hits = 0, decode_total = 0;
  double construct_ns = 0, hit_ns = 0, reset_ns = 0, self_ns = 0,
         attack_ns = 0, busy_ns = 0, tail_ns = 0;
  std::map<std::string, std::pair<double, std::size_t>> per_attack;
  std::vector<double> trial_ms;
  std::uint64_t traced_cycles = 0, traced_probes = 0, all_cycles = 0;
  std::size_t traced_cycle_trials = 0;
  for (std::size_t oi = 0; oi < traced.size(); ++oi) {
    const TracedOp& t = traced[oi];
    const bool first_of_cycle = oi < n_ops;
    tail_ns += static_cast<double>(t.tail_idle_ns);
    for (std::size_t i = 0; i < t.trials.size(); ++i) {
      const TracedTrial& tt = t.trials[i];
      ++n;
      const double trial_ns = static_cast<double>(tt.end_ns - tt.start_ns);
      trial_ms.push_back(trial_ns * 1e-6);
      busy_ns += trial_ns;
      if (tt.created) {
        ++constructs;
        construct_ns += static_cast<double>(tt.acquire_ns);
      } else {
        hit_ns += static_cast<double>(tt.acquire_ns);
      }
      reset_ns += static_cast<double>(tt.reset_ns);
      self_ns += trial_ns - static_cast<double>(tt.acquire_ns + tt.reset_ns +
                                                tt.run_ns);
      attack_ns += static_cast<double>(tt.attack_ns());
      auto& pa = per_attack[t.attacks[i]];
      pa.first += static_cast<double>(tt.attack_ns());
      ++pa.second;
      all_cycles += tt.fp.cycles;
      decode_hits += tt.decode_hits;
      decode_total += tt.decode_hits + tt.decode_misses;
      if (first_of_cycle) {
        traced_cycles += tt.fp.cycles;
        traced_probes += tt.fp.probes;
        ++traced_cycle_trials;
      }
    }
  }
  const bool full_cycle =
      std::all_of(traced_seen.begin(), traced_seen.end(), [](bool b) { return b; });
  rep.check(full_cycle, w.name + ": the traced run did not cover a full cycle");
  const double traced_cycles_per_trial =
      static_cast<double>(traced_cycles) /
      static_cast<double>(std::max<std::size_t>(1, traced_cycle_trials));
  rep.check(traced_cycles_per_trial == cycles_per_trial,
            w.name + ": traced and untraced sim cycles per trial differ");
  const std::size_t hits = n - constructs;
  const auto mean = [](double sum, std::size_t k) {
    return k ? sum / static_cast<double>(k) : 0.0;
  };
  rep.set("os.construct_ms", mean(construct_ns, constructs) * 1e-6, "ms");
  rep.set("os.reset_us", mean(reset_ns, n) * 1e-3, "us");
  rep.set("runner.acquire_hit_us", mean(hit_ns, hits) * 1e-3, "us");
  rep.set("runner.pool_hit_ratio", mean(static_cast<double>(hits), n), "ratio");
  rep.set("runner.trial_ms.p50", median(trial_ms), "ms");
  rep.set("runner.trial_ms.p99", tail_percentile(trial_ms).value, "ms");
  rep.set("runner.self_ms", mean(self_ns, n) * 1e-6, "ms");
  rep.set("runner.merge_ms", median(merge_ms), "ms");
  rep.set("runner.worker_busy_ratio",
          busy_ns / (static_cast<double>(args.jobs) * traced_seconds * 1e9),
          "ratio");
  rep.set("runner.tail_idle_ms", mean(tail_ns, traced.size()) * 1e-6, "ms");
  for (const auto& [attack, v] : per_attack) {
    rep.set("core.attack_ms." + attack, mean(v.first, v.second) * 1e-6, "ms");
    rep.set("core.attack_share." + attack, v.first / attack_ns, "ratio");
  }
  rep.set("uarch.host_ns_per_sim_cycle",
          attack_ns / static_cast<double>(std::max<std::uint64_t>(1, all_cycles)),
          "ns");
  rep.set("uarch.decode_hit_ratio", mean(static_cast<double>(decode_hits), decode_total),
          "ratio");
  rep.set("uarch.sim_cycles_per_trial", traced_cycles_per_trial, "count");
  rep.set("uarch.probes_per_trial",
          static_cast<double>(traced_probes) /
              static_cast<double>(std::max<std::size_t>(1, traced_cycle_trials)),
          "count");
  const double traced_rate = static_cast<double>(traced_trials) / traced_seconds;
  rep.set("bench.trace_overhead_ratio", 1.0 - traced_rate / untraced_rate,
          "ratio");
  std::snprintf(line, sizeof line,
                "%s: traced %.1f trials/s vs untraced %.1f trials/s; %zu of "
                "%zu traced acquires constructed a machine",
                w.name.c_str(), traced_rate, untraced_rate, constructs, n);
  Report::note(line);
  note_shares(w.name + ": host-time share per layer (traced self time)",
              log.self_seconds(true));
  if (!args.trace_out.empty() && !log.write_chrome_trace(args.trace_out))
    rep.fail("cannot write " + args.trace_out);
}

}  // namespace

void run_sweep(const Args& args, Report& rep) {
  run_trials_workload(sweep_workload(args.seed, args.jobs), args, rep);
}

void run_matrix(const Args& args, Report& rep) {
  run_trials_workload(matrix_workload(args.seed), args, rep);
}

}  // namespace perfbench

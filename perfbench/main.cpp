// whisper_perfbench — the repository benchmark, one workload per run.
//
//   whisper_perfbench --workload sweep|matrix|serve|dist --seed N
//                     --seconds S --trace 0|1 [--trace-out PATH]
//                     [--commit ID] [--source-digest HEX] [--setup-only 1]
//
// Every input (specs, request lines, arrival times) is generated from
// --seed. Note lines go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status is 0 only when every output check passed and no scheduled
// trial or request failed. With --setup-only 1 the run stops after the
// workload's set-up and the result line carries setup_s alone. README.md in
// this directory documents the workloads and every metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"trials_per_s", "1/s"},  {"p50_ms", "ms"},
    {"p99_ms", "ms"},       {"success_ratio", "ratio"}, {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"os.construct_ms", "ms"},
    {"os.reset_us", "us"},
    {"runner.acquire_hit_us", "us"},
    {"runner.pool_hit_ratio", "ratio"},
    {"runner.trial_ms.p50", "ms"},
    {"runner.trial_ms.p99", "ms"},
    {"runner.self_ms", "ms"},
    {"runner.merge_ms", "ms"},
    {"runner.worker_busy_ratio", "ratio"},
    {"runner.tail_idle_ms", "ms"},
    {"core.attack_ms.cc", "ms"},
    {"core.attack_ms.md", "ms"},
    {"core.attack_ms.zbl", "ms"},
    {"core.attack_ms.rsb", "ms"},
    {"core.attack_ms.v1", "ms"},
    {"core.attack_ms.rewind", "ms"},
    {"core.attack_ms.kaslr", "ms"},
    {"core.attack_share.cc", "ratio"},
    {"core.attack_share.md", "ratio"},
    {"core.attack_share.zbl", "ratio"},
    {"core.attack_share.rsb", "ratio"},
    {"core.attack_share.v1", "ratio"},
    {"core.attack_share.rewind", "ratio"},
    {"core.attack_share.kaslr", "ratio"},
    {"uarch.host_ns_per_sim_cycle", "ns"},
    {"uarch.decode_hit_ratio", "ratio"},
    {"uarch.sim_cycles_per_trial", "count"},
    {"uarch.probes_per_trial", "count"},
    {"serve.parse_us", "us"},
    {"serve.stream_ms", "ms"},
    {"serve.first_line_ms", "ms"},
    {"serve.queue_depth_max", "count"},
    {"serve.pool_waited", "count"},
    {"client.chunk_ms.p50", "ms"},
    {"client.chunk_ms.p99", "ms"},
    {"client.fold_ms", "ms"},
    {"client.endpoint_skew", "ratio"},
    {"client.requests", "count"},
    {"client.reassigned", "count"},
    {"client.duplicate_trials", "count"},
    {"bench.late_ms", "ms"},
    {"bench.trace_overhead_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "whisper_perfbench: %s\nusage: whisper_perfbench --workload "
               "sweep|matrix|serve|dist --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--commit ID] [--source-digest HEX] "
               "[--setup-only 1]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 0);
  if (v.empty() || v[0] == '-' || end == nullptr || *end != '\0')
    usage("bad value for " + flag + ": '" + v + "'");
  return x;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, v));
      if (args.seconds < 1 || args.seconds > 60) usage("--seconds out of range");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      args.trace = v == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else if (flag == "--commit") {
      commit = v;
    } else if (flag == "--source-digest") {
      source_digest = v;
    } else if (flag == "--setup-only") {
      if (v != "0" && v != "1") usage("--setup-only takes 0 or 1");
      args.setup_only = v == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || (!have_trace && !args.setup_only))
    usage("--seed and --trace are required");
  const unsigned hw = std::thread::hardware_concurrency();
  args.jobs = static_cast<int>(hw == 0 ? 1 : (hw < 4 ? hw : 4));

  void (*run)(const perfbench::Args&, Report&) = nullptr;
  if (args.workload == "sweep") run = perfbench::run_sweep;
  else if (args.workload == "matrix") run = perfbench::run_matrix;
  else if (args.workload == "serve") run = perfbench::run_serve;
  else if (args.workload == "dist") run = perfbench::run_dist;
  else usage("unknown workload '" + args.workload + "'");

  // The host descriptor: enough to tell two hosts or two builds apart.
  std::string compiler = "unknown";
#if defined(__clang__)
  compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  compiler = std::string("g++ ") + __VERSION__;
#endif
  Report::note(
      "{\"host\":{\"schema\":1,\"nproc\":" + std::to_string(hw) +
      ",\"jobs\":" + std::to_string(args.jobs) +
      ",\"compiler\":" + json_string(compiler) +
      ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
      ",\"commit\":" + json_string(commit) +
      ",\"source_digest\":" + json_string(source_digest) +
      ",\"workload\":" + json_string(args.workload) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + json_number(args.seconds) +
      ",\"trace\":" + (args.trace ? "true" : "false") + "}}");

  Report rep;
  try {
    run(args, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whisper_perfbench: %s\n", e.what());
    return 1;
  }
  rep.check(rep.failed == 0, std::to_string(rep.failed) + " of " +
                                 std::to_string(rep.attempted) +
                                 " scheduled trials or requests failed");

  // Emit exactly the catalogue of this mode. An end-to-end metric the
  // workload did not measure is a harness bug; a per-layer metric it did
  // not measure belongs to a layer the workload does not exercise and
  // reads 0.
  std::string metrics;
  std::string unexercised;
  const auto emit = [&](const MetricDef& d) {
    auto it = rep.metrics.find(d.name);
    double value = 0.0;
    if (it == rep.metrics.end()) {
      if (!args.trace) rep.fail(std::string("metric not measured: ") + d.name);
      else unexercised += std::string(unexercised.empty() ? "" : " ") + d.name;
    } else {
      value = it->second.value;
      if (it->second.unit != d.unit)
        rep.fail(std::string("unit mismatch for ") + d.name);
    }
    if (!std::isfinite(value)) {
      rep.fail(std::string("non-finite value for ") + d.name);
      value = 0.0;
    }
    if (!perfbench::valid_metric_name(d.name))
      rep.fail(std::string("bad metric name ") + d.name);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(d.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(d.unit) + "}";
  };
  if (args.setup_only) {
    emit(kEndToEnd[0]);  // setup_s
  } else if (args.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  if (!unexercised.empty())
    Report::note("layers not exercised by " + args.workload + " (read 0): " +
                 unexercised);
  for (const std::string& f : rep.failures)
    std::fprintf(stderr, "whisper_perfbench: check failed: %s\n", f.c_str());
  const bool correct = rep.failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

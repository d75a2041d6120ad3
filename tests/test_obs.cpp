// Regression layer for whisper::obs — the observability subsystem.
//
// This binary is standalone (its own main, not gtest_main) so it can take
//
//   --update-golden    rewrite tests/golden/ from current behaviour
//
// alongside the usual gtest flags. It locks down four contracts:
//
//  1. Golden trace: the Fig. 1 TET gadget's pipeline event stream
//     (opcode, cycle, stage) matches a checked-in golden file, with a
//     readable line diff on mismatch.
//  2. Observer effect: attaching an EventLog changes nothing — arch state,
//     PMU counters, ToTE values and cycle counts stay byte-identical.
//  3. Determinism: runner --jobs 4 produces bit-identical merged traces,
//     metrics and top-down attributions to --jobs 1.
//  4. Schema: exported Chrome trace JSON is well-formed, duration events
//     nest correctly, and every track's timestamps are monotone.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/attacks/common.h"
#include "core/attacks/meltdown.h"
#include "core/attacks/rewind.h"
#include "core/gadgets.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/thread_name.h"
#include "obs/topdown.h"
#include "os/machine.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "stats/json.h"
#include "support/sim_pin.h"
#include "uarch/trace.h"

namespace whisper {
namespace {

// ---------------------------------------------------------------------------
// Golden-file machinery
// ---------------------------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

/// Compare against the golden file at `name`; under --update-golden rewrite
/// it instead. Mismatches report a readable per-line diff and the
/// regeneration command.
testing::AssertionResult matches_golden(const std::string& name,
                                        const std::string& actual) {
  const std::string path = std::string(WHISPER_GOLDEN_DIR) + "/" + name;
  if (test_support::update_golden()) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      return testing::AssertionFailure()
             << "cannot write golden file " << path;
    }
    out << actual;
    std::printf("[golden] regenerated %s (%zu bytes)\n", path.c_str(),
                actual.size());
    return testing::AssertionSuccess();
  }

  std::ifstream in(path);
  if (!in) {
    return testing::AssertionFailure()
           << "golden file " << path << " is missing — run\n  test_obs "
           << "--update-golden\nand commit the result";
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == actual) return testing::AssertionSuccess();

  const auto want = split_lines(expected);
  const auto got = split_lines(actual);
  std::ostringstream diff;
  diff << "trace diverged from " << path << " (golden " << want.size()
       << " lines, actual " << got.size() << "):\n";
  int shown = 0;
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string& w = i < want.size() ? want[i] : "<end of golden>";
    const std::string& g = i < got.size() ? got[i] : "<end of actual>";
    if (w == g) continue;
    diff << "  line " << (i + 1) << ":\n    golden: " << w
         << "\n    actual: " << g << "\n";
    if (++shown == 8) {
      diff << "  ... (further differences suppressed)\n";
      break;
    }
  }
  diff << "if the new behaviour is intended, regenerate with\n"
       << "  test_obs --update-golden\nand commit the golden file.";
  return testing::AssertionFailure() << diff.str();
}

/// The golden rendering: one line per pipeline event — cycle, hardware
/// thread, stage, pc and opcode. seq is deliberately omitted so the golden
/// is insensitive to how many probes warmed the core before the recorded
/// one.
std::string render_trace(const std::vector<uarch::TraceRecord>& recs) {
  std::string out;
  char buf[128];
  for (const uarch::TraceRecord& r : recs) {
    std::snprintf(buf, sizeof buf, "%8llu t%d %-14s pc=%-4d %s\n",
                  static_cast<unsigned long long>(r.cycle), r.thread,
                  uarch::to_string(r.event).c_str(), r.pc,
                  isa::to_string(r.op).c_str());
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared fixtures: the Fig. 1 TET gadget probe
// ---------------------------------------------------------------------------

constexpr std::uint8_t kSecret = 'S';

std::array<std::uint64_t, isa::kNumRegs> fig1_regs(std::uint8_t test_value) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = core::kNullProbeAddress;
  regs[static_cast<std::size_t>(isa::Reg::RDX)] = os::Machine::kSharedBase;
  regs[static_cast<std::size_t>(isa::Reg::RBX)] = test_value;
  return regs;
}

// os::Machine is constructed in place everywhere (it is not safely movable:
// the core holds pointers into the machine's page-table members).
os::MachineOptions fig1_options() {
  return {.model = uarch::CpuModel::KabyLakeI7_7700};
}

core::GadgetProgram fig1_gadget(const os::Machine& m) {
  return core::make_tet_gadget(
      {.window = core::preferred_window(m.config()),
       .source = core::SecretSource::SharedMemory});
}

/// One triggered probe of the Fig. 1 gadget, events captured.
uarch::EventLog fig1_tet_log() {
  os::Machine m(fig1_options());
  m.poke8(os::Machine::kSharedBase, kSecret);
  const core::GadgetProgram g = fig1_gadget(m);
  uarch::EventLog log;
  m.core().set_trace(&log);
  (void)core::run_tote(m, g, fig1_regs(kSecret));
  m.core().set_trace(nullptr);
  return log;
}

// ---------------------------------------------------------------------------
// 1. Golden trace
// ---------------------------------------------------------------------------

TEST(GoldenTrace, Fig1TetGadgetEventStream) {
  const uarch::EventLog log = fig1_tet_log();
  ASSERT_FALSE(log.empty());
  EXPECT_TRUE(matches_golden("fig1_tet_trace.golden",
                             render_trace(log.records())));
}

TEST(GoldenTrace, Fig1StreamHasTheTetShape) {
  // Independent of golden bytes: the triggered probe must show the §5
  // mechanism end to end — the faulting load opens a transient window,
  // transient work inside it is squashed, the window closes with a machine
  // clear suppressed by TSX abort, and the front end resteers.
  const uarch::EventLog log = fig1_tet_log();
  std::uint64_t open_cycle = 0, close_cycle = 0;
  std::size_t squashed_after_open = 0;
  bool machine_clear = false, tsx_abort = false, resteer = false;
  for (const uarch::TraceRecord& r : log.records()) {
    switch (r.event) {
      case uarch::TraceEvent::WindowOpen:
        if (open_cycle == 0) open_cycle = r.cycle;
        break;
      case uarch::TraceEvent::WindowClose:
        if (close_cycle == 0) close_cycle = r.cycle;
        break;
      case uarch::TraceEvent::Squash:
        if (open_cycle != 0) ++squashed_after_open;
        break;
      case uarch::TraceEvent::MachineClear: machine_clear = true; break;
      case uarch::TraceEvent::TsxAbort: tsx_abort = true; break;
      case uarch::TraceEvent::Resteer: resteer = true; break;
      default: break;
    }
  }
  ASSERT_NE(open_cycle, 0u) << "no transient window opened";
  ASSERT_NE(close_cycle, 0u) << "the window never closed";
  EXPECT_LT(open_cycle, close_cycle) << "window has no width";
  EXPECT_GT(squashed_after_open, 0u)
      << "no transient work was squashed — nothing for ToTE to time";
  EXPECT_TRUE(machine_clear) << "window closed without a machine clear";
  EXPECT_TRUE(tsx_abort) << "the TSX window must suppress via abort";
  EXPECT_TRUE(resteer) << "recovery must resteer the front end";
}

// ---------------------------------------------------------------------------
// 1b. Golden trace: the SpectreRewind contention probe. The divider is the
// channel here — the golden pins the serialized fdiv issue cadence, and the
// shape test asserts the stall is a property of the trace (and so of the
// Chrome export built from it), not of the decoder.
// ---------------------------------------------------------------------------

std::array<std::uint64_t, isa::kNumRegs> rewind_regs(std::uint64_t index,
                                                     std::uint8_t test_value) {
  using core::SpectreRewind;
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RDI)] = SpectreRewind::kLenAddr;
  regs[static_cast<std::size_t>(isa::Reg::RSI)] = index;
  regs[static_cast<std::size_t>(isa::Reg::RDX)] = SpectreRewind::kArrayBase;
  regs[static_cast<std::size_t>(isa::Reg::RBX)] = test_value;
  return regs;
}

/// One out-of-bounds rewind probe with a MATCHING test value — the case
/// where the transient FDIV picks the hard divisor and steals the divider
/// from the receiver chain — traced after in-bounds training runs so the
/// bounds branch predicts not-taken.
uarch::EventLog rewind_contention_log() {
  using core::SpectreRewind;
  os::Machine m(fig1_options());
  m.poke64(SpectreRewind::kLenAddr, SpectreRewind::kArrayLen);
  for (std::uint64_t i = 0; i < SpectreRewind::kArrayLen; ++i)
    m.poke8(SpectreRewind::kArrayBase + i, static_cast<std::uint8_t>(i));
  m.poke8(SpectreRewind::kArrayBase + SpectreRewind::kSecretOffset, kSecret);

  const core::GadgetProgram g = core::make_rewind_gadget();
  for (std::uint64_t t = 0; t < 4; ++t)
    (void)core::run_tote(m, g,
                         rewind_regs(t % SpectreRewind::kArrayLen, kSecret));
  uarch::EventLog log;
  m.core().set_trace(&log);
  (void)core::run_tote(m, g,
                       rewind_regs(SpectreRewind::kSecretOffset, kSecret));
  m.core().set_trace(nullptr);
  return log;
}

TEST(GoldenTrace, RewindContentionEventStream) {
  const uarch::EventLog log = rewind_contention_log();
  ASSERT_FALSE(log.empty());
  EXPECT_TRUE(matches_golden("rewind_contention_trace.golden",
                             render_trace(log.records())));
}

TEST(GoldenTrace, RewindStreamShowsTheDividerStall) {
  // Independent of golden bytes: the non-pipelined divider must serialize
  // the fdiv stream. Every gap between consecutive fdiv issues is at least
  // div_latency (each receiver divide waits out its predecessor's
  // occupancy), and the squashed transient fdiv appears in the stream —
  // its residue is the channel.
  const uarch::EventLog log = rewind_contention_log();
  std::vector<std::uint64_t> fdiv_issues;
  bool fdiv_squashed = false;
  for (const uarch::TraceRecord& r : log.records()) {
    if (r.op != isa::Opcode::FdivRR) continue;
    if (r.event == uarch::TraceEvent::Issue) fdiv_issues.push_back(r.cycle);
    if (r.event == uarch::TraceEvent::Squash) fdiv_squashed = true;
  }
  os::Machine probe(fig1_options());
  const std::uint64_t div_latency =
      static_cast<std::uint64_t>(probe.config().div_latency);
  ASSERT_GE(fdiv_issues.size(), 3u) << "receiver chain not visible";
  for (std::size_t i = 1; i < fdiv_issues.size(); ++i) {
    EXPECT_GE(fdiv_issues[i] - fdiv_issues[i - 1], div_latency)
        << "divides " << (i - 1) << " and " << i
        << " overlapped on the single divider";
  }
  EXPECT_TRUE(fdiv_squashed)
      << "the transient FDIV never entered (or never left) the wrong path";
  // The stall survives into the Chrome export: the fdiv slices are there.
  const std::string json = obs::to_chrome_trace(log);
  EXPECT_NE(json.find("fdiv"), std::string::npos);
}

// The two squash paths the fig1 and rewind goldens do not reach: a Jcc
// resolving inside a Spectre-V1 window, and a Ret whose completion finds a
// wrong RSB prediction. One runner trial each; the Chrome export's bytes
// are pinned by digest in tests/golden/simulation.pin.
TEST(GoldenTrace, V1AndRsbRunnerTraceDigests) {
  for (const char* attack : {"v1", "rsb"}) {
    runner::RunSpec spec;
    spec.model = uarch::CpuModel::KabyLakeI7_7700;
    spec.attack = attack;
    spec.trials = 1;
    spec.batches = 1;
    spec.payload_bytes = 1;
    spec.base_seed = 0x71ace;
    spec.collect_trace = true;
    const runner::RunResult r = runner::run(spec, /*jobs=*/1);
    bool squashed = false;
    for (const uarch::TraceRecord& rec : r.events.records())
      squashed |= rec.event == uarch::TraceEvent::SquashYounger;
    EXPECT_TRUE(squashed) << attack << " trace shows no wrong-path squash";
    EXPECT_TRUE(test_support::matches_pin(test_support::pin_key(attack),
                                          obs::to_chrome_trace(r.events)));
  }
}

// ---------------------------------------------------------------------------
// 2. Observer effect: attaching a sink must change nothing
// ---------------------------------------------------------------------------

TEST(ObserverEffect, ToteProbesByteIdenticalWithAndWithoutSink) {
  os::Machine plain(fig1_options());
  os::Machine traced(fig1_options());
  plain.poke8(os::Machine::kSharedBase, kSecret);
  traced.poke8(os::Machine::kSharedBase, kSecret);
  const core::GadgetProgram g = fig1_gadget(plain);
  const core::GadgetProgram g2 = fig1_gadget(traced);
  uarch::EventLog log;
  traced.core().set_trace(&log);

  for (int probe = 0; probe < 6; ++probe) {
    const std::uint8_t tv = probe % 2 ? kSecret : 'T';
    const std::uint64_t a = core::run_tote(plain, g, fig1_regs(tv));
    const std::uint64_t b = core::run_tote(traced, g2, fig1_regs(tv));
    EXPECT_EQ(a, b) << "ToTE diverged on probe " << probe;
  }
  traced.core().set_trace(nullptr);
  EXPECT_FALSE(log.empty());

  // Cycle counters and the entire PMU array must agree, event for event.
  EXPECT_EQ(plain.core().cycle(), traced.core().cycle());
  const uarch::PmuSnapshot pa = plain.core().pmu().snapshot();
  const uarch::PmuSnapshot pb = traced.core().pmu().snapshot();
  for (std::size_t e = 0; e < uarch::kNumPmuEvents; ++e) {
    EXPECT_EQ(pa[e], pb[e])
        << "PMU counter "
        << uarch::to_string(static_cast<uarch::PmuEvent>(e)) << " diverged";
  }
}

TEST(ObserverEffect, MeltdownLeakByteIdenticalWithAndWithoutSink) {
  const std::vector<std::uint8_t> secret = {0xde, 0xad};
  auto leak = [&](uarch::EventLog* log, uarch::PmuSnapshot* pmu_out,
                  std::uint64_t* cycle_out) {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    if (log) m.core().set_trace(log);
    const std::uint64_t kaddr = m.plant_kernel_secret(secret);
    core::TetMeltdown atk(m);
    const auto got = atk.leak(kaddr, secret.size());
    m.core().set_trace(nullptr);
    *pmu_out = m.core().pmu().snapshot();
    *cycle_out = m.core().cycle();
    return got;
  };

  uarch::PmuSnapshot pmu_plain{}, pmu_traced{};
  std::uint64_t cyc_plain = 0, cyc_traced = 0;
  uarch::EventLog log;
  const auto got_plain = leak(nullptr, &pmu_plain, &cyc_plain);
  const auto got_traced = leak(&log, &pmu_traced, &cyc_traced);

  EXPECT_EQ(got_plain, got_traced);   // architectural outcome
  EXPECT_EQ(cyc_plain, cyc_traced);   // retire timing
  EXPECT_EQ(pmu_plain, pmu_traced);   // every PMU counter
  EXPECT_FALSE(log.empty());
}

// ---------------------------------------------------------------------------
// 3. Runner determinism: --jobs N merges equal sequential
// ---------------------------------------------------------------------------

runner::RunSpec small_md_spec() {
  runner::RunSpec spec;
  spec.model = uarch::CpuModel::KabyLakeI7_7700;
  spec.attack = "md";
  spec.trials = 4;
  spec.payload_bytes = 2;
  spec.batches = 2;
  spec.base_seed = 42;
  spec.collect_trace = true;
  return spec;
}

TEST(RunnerDeterminism, Jobs4TraceAndMetricsEqualSequential) {
  const runner::RunSpec spec = small_md_spec();
  const runner::RunResult seq = runner::run(spec, /*jobs=*/1);
  const runner::RunResult par = runner::run(spec, /*jobs=*/4);

  // Merged event log: byte-identical Chrome export.
  ASSERT_FALSE(seq.events.empty());
  EXPECT_EQ(seq.events.size(), par.events.size());
  EXPECT_EQ(obs::to_chrome_trace(seq.events), obs::to_chrome_trace(par.events));

  // Merged metrics registry and top-down attribution: byte-identical.
  EXPECT_EQ(runner::to_metrics(seq).to_json(), runner::to_metrics(par).to_json());
  EXPECT_EQ(runner::to_metrics(seq).to_csv(), runner::to_metrics(par).to_csv());
  EXPECT_EQ(seq.pmu, par.pmu);
  EXPECT_EQ(seq.topdown.total_cycles, par.topdown.total_cycles);
  EXPECT_EQ(seq.topdown.retiring, par.topdown.retiring);
  EXPECT_EQ(seq.topdown.bad_speculation, par.topdown.bad_speculation);
  EXPECT_EQ(seq.topdown.frontend_bound, par.topdown.frontend_bound);
  EXPECT_EQ(seq.topdown.backend_bound, par.topdown.backend_bound);

  // Per-trial observability rides along index-ordered.
  ASSERT_EQ(seq.trials.size(), par.trials.size());
  for (std::size_t i = 0; i < seq.trials.size(); ++i) {
    EXPECT_EQ(seq.trials[i].seed, par.trials[i].seed);
    EXPECT_EQ(seq.trials[i].pmu, par.trials[i].pmu);
    EXPECT_EQ(seq.trials[i].events.size(), par.trials[i].events.size());
  }
}

TEST(RunnerDeterminism, CollectTraceDoesNotChangeResults) {
  runner::RunSpec off = small_md_spec();
  off.collect_trace = false;
  runner::RunSpec on = small_md_spec();

  const runner::RunResult a = runner::run(off, 1);
  const runner::RunResult b = runner::run(on, 1);
  EXPECT_TRUE(a.events.empty());
  EXPECT_FALSE(b.events.empty());
  // Everything measured must agree; only the captured events differ.
  EXPECT_EQ(a.pmu, b.pmu);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.total_probes, b.total_probes);
  EXPECT_EQ(runner::to_metrics(a).to_json(), runner::to_metrics(b).to_json());
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i)
    EXPECT_EQ(a.trials[i].cycles, b.trials[i].cycles) << "trial " << i;
}

// ---------------------------------------------------------------------------
// 4. Chrome trace-event schema
// ---------------------------------------------------------------------------

/// Minimal parsed view of one exported trace event. The exporter writes
/// fields in a fixed order, so a linear scan of each object is reliable.
struct ParsedEvent {
  char ph = '?';
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  int tid = -1;
  bool has_ts = false;
};

std::uint64_t field_u64(const std::string& obj, const std::string& key,
                        bool* found = nullptr) {
  const std::size_t at = obj.find("\"" + key + "\":");
  if (found) *found = at != std::string::npos;
  if (at == std::string::npos) return 0;
  return std::strtoull(obj.c_str() + at + key.size() + 3, nullptr, 10);
}

/// Split the traceEvents array into one string per top-level event object
/// (brace-depth scan; exporter output contains no braces inside strings)
/// and pull out the schema-relevant fields.
std::vector<ParsedEvent> parse_trace_events(const std::string& json) {
  std::vector<ParsedEvent> out;
  std::size_t arr = json.find("\"traceEvents\":[");
  EXPECT_NE(arr, std::string::npos);
  if (arr == std::string::npos) return out;
  arr += std::string("\"traceEvents\":[").size();

  int depth = 0;
  std::size_t obj_start = 0;
  for (std::size_t i = arr; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') {
      if (depth++ == 0) obj_start = i;
    } else if (c == '}') {
      if (--depth == 0) {
        const std::string obj = json.substr(obj_start, i - obj_start + 1);
        ParsedEvent e;
        const std::size_t ph = obj.find("\"ph\":\"");
        if (ph != std::string::npos) e.ph = obj[ph + 6];
        e.ts = field_u64(obj, "ts", &e.has_ts);
        e.dur = field_u64(obj, "dur");
        bool has_tid = false;
        const std::uint64_t tid = field_u64(obj, "tid", &has_tid);
        e.tid = has_tid ? static_cast<int>(tid) : -1;
        out.push_back(e);
      }
    } else if (c == ']' && depth == 0) {
      break;  // end of traceEvents
    }
  }
  return out;
}

void check_chrome_schema(const std::string& json) {
  // Well-formed JSON, full stop.
  ASSERT_TRUE(stats::json_is_valid(json)) << "exporter emitted invalid JSON";

  const std::vector<ParsedEvent> events = parse_trace_events(json);
  ASSERT_FALSE(events.empty());

  std::map<int, std::uint64_t> last_ts;       // per-track monotonicity
  std::map<int, int> open_depth;              // B/E balance per track
  std::map<int, std::vector<std::uint64_t>> open_ts;
  std::map<int, std::uint64_t> slice_end;     // X slices must not overlap

  for (const ParsedEvent& e : events) {
    if (e.ph == 'M') continue;  // metadata carries no timestamp
    ASSERT_TRUE(e.has_ts) << "non-metadata event without ts";
    ASSERT_GE(e.tid, 0);

    // Timestamps monotone per track, in array order.
    auto [it, fresh] = last_ts.emplace(e.tid, e.ts);
    if (!fresh) {
      EXPECT_LE(it->second, e.ts)
          << "track tid=" << e.tid << " timestamps went backwards";
      it->second = e.ts;
    }

    if (e.ph == 'B') {
      ++open_depth[e.tid];
      open_ts[e.tid].push_back(e.ts);
    } else if (e.ph == 'E') {
      ASSERT_GT(open_depth[e.tid], 0)
          << "E without matching B on tid=" << e.tid;
      --open_depth[e.tid];
      EXPECT_GE(e.ts, open_ts[e.tid].back())
          << "duration event ends before it begins on tid=" << e.tid;
      open_ts[e.tid].pop_back();
    } else if (e.ph == 'X') {
      auto [sit, first] = slice_end.emplace(e.tid, e.ts + e.dur);
      if (!first) {
        EXPECT_LE(sit->second, e.ts)
            << "overlapping X slices on tid=" << e.tid << " at ts=" << e.ts;
        sit->second = e.ts + e.dur;
      }
      EXPECT_GT(e.dur, 0u) << "zero-width slice at ts=" << e.ts;
    }
  }
  for (const auto& [tid, depth] : open_depth)
    EXPECT_EQ(depth, 0) << "unbalanced B/E pair left open on tid=" << tid;
}

TEST(ChromeTraceSchema, Fig1ProbeExportIsValid) {
  check_chrome_schema(obs::to_chrome_trace(fig1_tet_log()));
}

TEST(ChromeTraceSchema, MergedRunnerExportIsValid) {
  const runner::RunResult r = runner::run(small_md_spec(), 2);
  check_chrome_schema(obs::to_chrome_trace(r.events));
}

TEST(ChromeTraceSchema, EmptyLogStillExportsValidJson) {
  const uarch::EventLog empty;
  const std::string json = obs::to_chrome_trace(empty);
  EXPECT_TRUE(stats::json_is_valid(json));
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  obs::MetricsRegistry reg;
  reg.add_counter("probes", 3);
  reg.add_counter("probes", 4);
  reg.set_gauge("rate", 1.5);
  reg.set_gauge("rate", 2.5);  // overwrite
  reg.add_sample("tote", 100);
  reg.add_sample("tote", 100);
  reg.add_sample("tote", 180);

  EXPECT_EQ(reg.counter("probes"), 7u);
  EXPECT_EQ(reg.gauge("rate"), 2.5);
  EXPECT_EQ(reg.histogram("tote").total(), 3u);
  EXPECT_EQ(reg.histogram("tote").count(100), 2u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  EXPECT_FALSE(reg.has_counter("missing"));
  EXPECT_EQ(reg.names(),
            (std::vector<std::string>{"probes", "rate", "tote"}));
}

TEST(MetricsRegistry, MergeAddsCountersAndBuckets) {
  obs::MetricsRegistry a, b;
  a.add_counter("c", 2);
  a.add_sample("h", 10);
  b.add_counter("c", 5);
  b.add_counter("only_b", 1);
  b.add_sample("h", 20);
  a.merge(b);
  EXPECT_EQ(a.counter("c"), 7u);
  EXPECT_EQ(a.counter("only_b"), 1u);
  EXPECT_EQ(a.histogram("h").total(), 2u);
}

TEST(MetricsRegistry, ExportIsDeterministicAndValid) {
  // Same metrics, opposite registration order -> same bytes.
  obs::MetricsRegistry a, b;
  a.add_counter("x", 1);
  a.add_counter("y", 2);
  a.set_gauge("g", 0.5);
  b.set_gauge("g", 0.5);
  b.add_counter("y", 2);
  b.add_counter("x", 1);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_TRUE(stats::json_is_valid(a.to_json()));
  EXPECT_EQ(a.to_csv().rfind("name,kind,field,value\n", 0), 0u);
}

TEST(MetricsRegistry, ImportPmuUsesEventNames) {
  uarch::PmuSnapshot snap{};
  snap[static_cast<std::size_t>(uarch::PmuEvent::CORE_CYCLES)] = 123;
  snap[static_cast<std::size_t>(uarch::PmuEvent::UOPS_ISSUED_ANY)] = 9;
  obs::MetricsRegistry reg;
  reg.import_pmu(snap);
  EXPECT_EQ(
      reg.counter("pmu." + uarch::to_string(uarch::PmuEvent::CORE_CYCLES)),
      123u);
  EXPECT_EQ(reg.counter("pmu." +
                        uarch::to_string(uarch::PmuEvent::UOPS_ISSUED_ANY)),
            9u);
  // One counter per PMU event, even zero-valued ones.
  EXPECT_EQ(reg.names().size(), uarch::kNumPmuEvents);
}

TEST(JsonValidator, AcceptsAndRejects) {
  using stats::json_is_valid;
  EXPECT_TRUE(json_is_valid("{}"));
  EXPECT_TRUE(json_is_valid("[1,2.5,-3e2,\"s\",true,false,null]"));
  EXPECT_TRUE(json_is_valid("{\"a\":{\"b\":[{}]}}"));
  EXPECT_FALSE(json_is_valid(""));
  EXPECT_FALSE(json_is_valid("{"));
  EXPECT_FALSE(json_is_valid("{\"a\":1,}"));
  EXPECT_FALSE(json_is_valid("[1 2]"));
  EXPECT_FALSE(json_is_valid("{\"a\":01}"));
  EXPECT_FALSE(json_is_valid("\"unterminated"));
  EXPECT_FALSE(json_is_valid("{} extra"));
  // Nesting is capped at kMaxJsonDepth: at the cap is fine, one deeper not.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(json_is_valid(nested(stats::kMaxJsonDepth)));
  EXPECT_FALSE(json_is_valid(nested(stats::kMaxJsonDepth + 1)));
  // A lone surrogate escape encodes no character.
  EXPECT_FALSE(json_is_valid("\"\\ud800\""));
}

// ---------------------------------------------------------------------------
// Top-down attribution
// ---------------------------------------------------------------------------

uarch::PmuSnapshot topdown_snapshot(std::uint64_t total,
                                    std::uint64_t recovery,
                                    std::uint64_t resteer,
                                    std::uint64_t icache,
                                    std::uint64_t rs_empty,
                                    std::uint64_t stalls,
                                    std::uint64_t resource) {
  using uarch::PmuEvent;
  uarch::PmuSnapshot s{};
  s[static_cast<std::size_t>(PmuEvent::CORE_CYCLES)] = total;
  s[static_cast<std::size_t>(PmuEvent::INT_MISC_RECOVERY_CYCLES_ANY)] =
      recovery;
  s[static_cast<std::size_t>(PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES)] =
      resteer;
  s[static_cast<std::size_t>(PmuEvent::ICACHE_16B_IFDATA_STALL)] = icache;
  s[static_cast<std::size_t>(PmuEvent::RS_EVENTS_EMPTY_CYCLES)] = rs_empty;
  s[static_cast<std::size_t>(PmuEvent::CYCLE_ACTIVITY_STALLS_TOTAL)] = stalls;
  s[static_cast<std::size_t>(PmuEvent::RESOURCE_STALLS_ANY)] = resource;
  return s;
}

std::uint64_t bucket_sum(const obs::TopDown& td) {
  return td.retiring + td.bad_speculation + td.frontend_bound +
         td.backend_bound;
}

TEST(TopDown, BucketsPartitionTotalCycles) {
  const obs::TopDown td =
      obs::attribute_cycles(topdown_snapshot(100, 30, 10, 10, 5, 20, 10));
  EXPECT_EQ(td.total_cycles, 100u);
  EXPECT_EQ(td.bad_speculation, 40u);
  EXPECT_EQ(td.frontend_bound, 15u);
  EXPECT_EQ(td.backend_bound, 30u);
  EXPECT_EQ(td.retiring, 15u);
  EXPECT_EQ(bucket_sum(td), td.total_cycles);
}

TEST(TopDown, ClampsWhenCountersOvershoot) {
  // Recovery alone exceeds the interval: everything is bad speculation,
  // later buckets get nothing, the sum still holds exactly.
  const obs::TopDown td = obs::attribute_cycles(
      topdown_snapshot(100, 1000, 500, 400, 300, 200, 100));
  EXPECT_EQ(td.bad_speculation, 100u);
  EXPECT_EQ(td.frontend_bound, 0u);
  EXPECT_EQ(td.backend_bound, 0u);
  EXPECT_EQ(td.retiring, 0u);
  EXPECT_EQ(bucket_sum(td), td.total_cycles);
}

TEST(TopDown, ZeroIntervalIsAllZero) {
  const obs::TopDown td =
      obs::attribute_cycles(topdown_snapshot(0, 5, 5, 5, 5, 5, 5));
  EXPECT_EQ(td.total_cycles, 0u);
  EXPECT_EQ(bucket_sum(td), 0u);
  EXPECT_EQ(td.retiring_frac(), 0.0);
}

TEST(TopDown, MergePreservesThePartition) {
  obs::TopDown a =
      obs::attribute_cycles(topdown_snapshot(100, 30, 10, 10, 5, 20, 10));
  // b's recovery counter overshoots, so its whole 50-cycle interval clamps
  // to bad speculation.
  const obs::TopDown b = obs::attribute_cycles(
      topdown_snapshot(50, 100, 0, 0, 0, 0, 0));
  a.merge(b);
  EXPECT_EQ(a.total_cycles, 150u);
  EXPECT_EQ(bucket_sum(a), a.total_cycles);
  EXPECT_EQ(a.bad_speculation, 40u + 50u);
}

TEST(TopDown, RealRunPartitionsExactly) {
  // The invariant must hold on real PMU data too, for every trial and for
  // the merged run.
  runner::RunSpec spec = small_md_spec();
  spec.collect_trace = false;
  const runner::RunResult r = runner::run(spec, 1);
  ASSERT_GT(r.topdown.total_cycles, 0u);
  EXPECT_EQ(bucket_sum(r.topdown), r.topdown.total_cycles);
  for (const runner::TrialResult& t : r.trials) {
    EXPECT_EQ(bucket_sum(t.topdown), t.topdown.total_cycles);
    EXPECT_EQ(
        t.topdown.total_cycles,
        t.pmu[static_cast<std::size_t>(uarch::PmuEvent::CORE_CYCLES)]);
  }
  // Fractions in the report line stay within [0, 1].
  EXPECT_GE(r.topdown.bad_speculation_frac(), 0.0);
  EXPECT_LE(r.topdown.bad_speculation_frac(), 1.0);
  EXPECT_FALSE(r.topdown.to_string().empty());
}

// ---------------------------------------------------------------------------
// Trajectory JSON carries the attribution
// ---------------------------------------------------------------------------

TEST(TrajectoryJson, CarriesTopdownAndStaysValid) {
  const runner::RunResult r = runner::run(small_md_spec(), 1);
  const std::string json = runner::to_json(r);
  EXPECT_TRUE(stats::json_is_valid(json));
  EXPECT_NE(json.find("\"topdown\":{\"total_cycles\":"), std::string::npos);
  EXPECT_NE(json.find("\"bad_speculation\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Thread naming convention
// ---------------------------------------------------------------------------

// Every pool worker must announce itself as wsp-work-<i> (the serve daemon
// adds wsp-accept / wsp-client-<i> / wsp-serve-<i>; src/obs/thread_name.h
// pins the convention), so traces, watchdog reports and `top -H` can
// attribute cycles to the right subsystem instead of an anonymous thread.
TEST(ThreadNames, ExecutorWorkersFollowTheNamingConvention) {
  runner::Executor ex(3);
  const auto names =
      ex.map(8, [](std::size_t) { return obs::current_thread_name(); });
  ASSERT_EQ(names.size(), 8u);
  for (const std::string& name : names)
    EXPECT_EQ(name.rfind("wsp-work-", 0), 0u) << "unnamed worker: " << name;
}

}  // namespace
}  // namespace whisper

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  whisper::test_support::parse_golden_flag(argc, argv);
  return RUN_ALL_TESTS();
}

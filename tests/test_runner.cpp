// Tests for whisper::runner — the parallel experiment executor.
//
// The load-bearing property is the determinism contract: fanning trials out
// across a thread pool must be *bit-identical* to running them sequentially
// (--jobs 1), because every trial is a pure function of (spec, index) and
// the merge step folds results in index order. These tests pin that down,
// plus the merge arithmetic and the degenerate one-job path.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/attacks/registry.h"
#include "runner/executor.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "stats/summary.h"

namespace whisper::runner {
namespace {

// A spec cheap enough to run dozens of trials in a unit test.
RunSpec cheap_kaslr_spec(int trials) {
  RunSpec spec;
  spec.model = uarch::CpuModel::CometLakeI9_10980XE;
  spec.attack = "kaslr";
  spec.trials = trials;
  spec.base_seed = 0xfeedULL;
  spec.batches = 1;  // sweep rounds
  return spec;
}

RunSpec cheap_channel_spec(const std::string& attack) {
  RunSpec spec;
  spec.model = uarch::CpuModel::KabyLakeI7_7700;
  spec.attack = attack;
  spec.trials = 2;
  spec.base_seed = 0xabcULL;
  spec.batches = 2;
  spec.payload_bytes = 2;
  spec.payload_seed = 0x11;
  return spec;
}

void expect_identical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);  // bit-identical, not approximately
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.byte_errors, b.byte_errors);
  EXPECT_EQ(a.found_slot, b.found_slot);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.tote.buckets(), b.tote.buckets());
}

TEST(TrialSeed, DeterministicNonZeroAndDistinct) {
  EXPECT_EQ(trial_seed(42, 7), trial_seed(42, 7));
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_NE(trial_seed(42, i), 0u) << "0 means 'use the CPU preset'";
    if (i > 0) {
      EXPECT_NE(trial_seed(42, i), trial_seed(42, 0));
    }
  }
  EXPECT_NE(trial_seed(1, 0), trial_seed(2, 0));
}

TEST(Executor, MapPreservesIndexOrder) {
  Executor ex(4);
  const auto out = ex.map(100, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Executor, SingleJobIsDegenerateSequential) {
  Executor ex(1);
  EXPECT_EQ(ex.jobs(), 1);
  // With one job the calls must happen inline and in order.
  std::vector<std::size_t> order;
  const auto out = ex.map(8, [&order](std::size_t i) {
    order.push_back(i);
    return i;
  });
  std::vector<std::size_t> expect(8);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
  EXPECT_EQ(out, expect);
}

TEST(Executor, ZeroRequestsResolveToHardwareConcurrency) {
  EXPECT_EQ(resolve_jobs(0), default_jobs());
  EXPECT_EQ(resolve_jobs(-3), default_jobs());
  EXPECT_EQ(resolve_jobs(5), 5);
  EXPECT_GE(default_jobs(), 1);
}

TEST(Runner, ParallelBitIdenticalToSequential) {
  const RunSpec spec = cheap_kaslr_spec(8);
  const RunResult seq = run(spec, /*jobs=*/1);
  const RunResult par = run(spec, /*jobs=*/4);
  ASSERT_EQ(seq.trials.size(), par.trials.size());
  for (std::size_t i = 0; i < seq.trials.size(); ++i)
    expect_identical(seq.trials[i], par.trials[i]);
  // The merged view must match too — including the folded histogram.
  EXPECT_EQ(seq.successes, par.successes);
  EXPECT_EQ(seq.total_probes, par.total_probes);
  EXPECT_EQ(seq.seconds.mean, par.seconds.mean);
  EXPECT_EQ(seq.seconds.stdev, par.seconds.stdev);
  EXPECT_EQ(seq.tote.buckets(), par.tote.buckets());
  EXPECT_EQ(seq.jobs, 1);
  EXPECT_EQ(par.jobs, 4);
}

TEST(Runner, ChannelTrialsAreDeterministicAcrossJobs) {
  for (const char* a : {"md", "rsb"}) {
    const RunSpec spec = cheap_channel_spec(a);
    const RunResult seq = run(spec, 1);
    const RunResult par = run(spec, 3);
    ASSERT_EQ(seq.trials.size(), 2u);
    for (std::size_t i = 0; i < seq.trials.size(); ++i)
      expect_identical(seq.trials[i], par.trials[i]);
    EXPECT_EQ(seq.total_bytes, 4u);
  }
}

TEST(Runner, TrialsUseDistinctSeedsAndPayloads) {
  const RunSpec spec = cheap_kaslr_spec(4);
  const RunResult r = run(spec, 2);
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    EXPECT_EQ(r.trials[i].seed, trial_seed(spec.base_seed, i));
    for (std::size_t j = i + 1; j < r.trials.size(); ++j)
      EXPECT_NE(r.trials[i].seed, r.trials[j].seed);
  }
}

TEST(Runner, MergeFoldsTrialStatistics) {
  const RunSpec spec = cheap_kaslr_spec(5);
  const RunResult r = run(spec, 2);
  ASSERT_EQ(r.trials.size(), 5u);

  std::size_t successes = 0, probes = 0;
  std::uint64_t tote_total = 0;
  std::vector<double> secs;
  for (const TrialResult& t : r.trials) {
    successes += t.success ? 1 : 0;
    probes += t.probes;
    tote_total += t.tote.total();
    secs.push_back(t.seconds);
  }
  EXPECT_EQ(r.successes, successes);
  EXPECT_EQ(r.total_probes, probes);
  EXPECT_EQ(r.tote.total(), tote_total);
  const stats::Summary expect =
      stats::summarize(std::span<const double>(secs));
  EXPECT_DOUBLE_EQ(r.seconds.mean, expect.mean);
  EXPECT_DOUBLE_EQ(r.seconds.stdev, expect.stdev);
  EXPECT_EQ(static_cast<std::size_t>(r.cycles.n()), r.trials.size());
}

TEST(Runner, RunManyGroupsResultsInSpecOrder) {
  std::vector<RunSpec> specs = {cheap_kaslr_spec(3), cheap_kaslr_spec(1)};
  specs[1].base_seed = 0x5117ULL;
  Executor ex(4);
  const auto results = run_many(specs, ex);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].trials.size(), 3u);
  EXPECT_EQ(results[1].trials.size(), 1u);
  // Each group must equal what a standalone run of its spec produces.
  const RunResult solo = run(specs[1], 1);
  ASSERT_EQ(solo.trials.size(), 1u);
  expect_identical(results[1].trials[0], solo.trials[0]);
}

TEST(Runner, AttackNamesComeFromTheRegistry) {
  for (const std::string& name : core::attack_names())
    EXPECT_NE(core::find_attack(name), nullptr);
  EXPECT_EQ(core::find_attack("prefetch"), nullptr);
  RunSpec spec = cheap_kaslr_spec(1);
  spec.attack = "prefetch";
  EXPECT_THROW((void)run(spec, 1), std::invalid_argument);
  Executor ex(2);
  EXPECT_THROW((void)run_many({spec}, ex), std::invalid_argument);
}

TEST(JsonWriter, EmitsValidStructure) {
  const RunSpec spec = cheap_kaslr_spec(2);
  const RunResult r = run(spec, 2);
  const std::string j = to_json(r);
  // Balanced braces/brackets and the load-bearing keys present.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
  EXPECT_NE(j.find("\"attack\":\"kaslr\""), std::string::npos);
  EXPECT_NE(j.find("\"trials\":2"), std::string::npos);
  EXPECT_NE(j.find("\"trials_detail\":["), std::string::npos);
  EXPECT_NE(j.find("\"tote\":"), std::string::npos);
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_object();
  w.key("k");
  w.value(std::string("a\"b\\c\nd"));
  w.end_object();
  EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, DeterministicAcrossJobs) {
  const RunSpec spec = cheap_kaslr_spec(3);
  RunResult seq = run(spec, 1);
  RunResult par = run(spec, 4);
  // wall_seconds and jobs legitimately differ; normalise those fields.
  par.wall_seconds = seq.wall_seconds;
  par.jobs = seq.jobs;
  EXPECT_EQ(to_json(seq), to_json(par));
}

}  // namespace
}  // namespace whisper::runner

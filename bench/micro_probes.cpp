// Google-benchmark microbenchmarks: host-side cost of the simulator's core
// operations (one probe of each gadget, one KASLR slot scan, a PMU scenario
// pair, one machine construction, one whole trial of each registry attack
// with and without fast-forward). Useful for keeping experiment wall-clock
// in check as the model grows.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "core/attacks/common.h"
#include "core/attacks/kaslr.h"
#include "core/attacks/registry.h"
#include "core/gadgets.h"
#include "core/pmu_toolset.h"
#include "os/machine.h"
#include "runner/runner.h"

using namespace whisper;

namespace {

std::array<std::uint64_t, isa::kNumRegs> regs_with(
    std::initializer_list<std::pair<isa::Reg, std::uint64_t>> kv) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  for (const auto& [r, v] : kv) regs[static_cast<std::size_t>(r)] = v;
  return regs;
}

void BM_TetGadgetProbe(benchmark::State& state) {
  os::Machine m({.model = static_cast<uarch::CpuModel>(state.range(0))});
  m.poke8(os::Machine::kSharedBase, 'S');
  const auto g =
      core::make_tet_gadget({.window = core::preferred_window(m.config()),
                             .source = core::SecretSource::SharedMemory});
  const auto regs = regs_with({{isa::Reg::RCX, core::kNullProbeAddress},
                               {isa::Reg::RDX, os::Machine::kSharedBase},
                               {isa::Reg::RBX, 'S'}});
  for (auto _ : state)
    benchmark::DoNotOptimize(core::run_tote(m, g, regs));
}

void BM_RsbGadgetProbe(benchmark::State& state) {
  os::Machine m({.model = uarch::CpuModel::RaptorLakeI9_13900K});
  m.poke8(os::Machine::kSharedBase, 'R');
  const auto g = core::make_rsb_gadget();
  const auto regs = regs_with(
      {{isa::Reg::RDX, os::Machine::kSharedBase}, {isa::Reg::RBX, 'R'}});
  for (auto _ : state)
    benchmark::DoNotOptimize(core::run_tote(m, g, regs));
}

void BM_KaslrProbe(benchmark::State& state) {
  os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE});
  core::TetKaslr atk(m);
  const std::uint64_t target = m.kernel().kernel_base();
  for (auto _ : state)
    benchmark::DoNotOptimize(atk.probe_once(target));
}

void BM_PmuScenarioMeasure(benchmark::State& state) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  core::PmuToolset ts(m);
  const auto base = core::scenario_tet_cc(false);
  const auto var = core::scenario_tet_cc(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ts.measure(uarch::PmuEvent::UOPS_ISSUED_ANY, base, var));
  }
}

// What every machine-pool miss pays: construction plus the snapshot() that
// records the reset baseline and its digest.
void BM_MachineConstruction(benchmark::State& state) {
  for (auto _ : state) {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    m.snapshot();
    benchmark::DoNotOptimize(m.baseline_digest());
  }
}

// One trial of `attack` per iteration on one snapshot()ted Kaby Lake
// machine (2 payload bytes, 1 batch), reset to the same seed each time, so
// every iteration replays the same trial. The fast_forward/structural
// ratio of a pair is fast-forward's speedup on the trial path; results are
// byte-identical either way (invariant 10). With fast-forward on, the
// core's fast-forward counters are reported per trial.
void BM_Trial(benchmark::State& state, const std::string& attack,
              bool fast_forward) {
  using Stats = uarch::Core::FastForwardStats;
  runner::RunSpec spec;
  spec.model = uarch::CpuModel::KabyLakeI7_7700;
  spec.attack = attack;
  spec.payload_bytes = 2;
  spec.batches = 1;
  spec.base_seed = 0xbe9cULL;
  spec.fast_forward = fast_forward;
  const std::uint64_t seed = runner::trial_seed(spec.base_seed, 0);
  os::Machine m(runner::machine_options(spec, seed));
  m.snapshot();
  const Stats before = m.core().fast_forward_stats();
  for (auto _ : state)
    benchmark::DoNotOptimize(runner::run_trial(spec, seed, m));
  if (!fast_forward) return;

  const std::pair<const char*, std::uint64_t Stats::*> kCounters[] = {
      {"attempts", &Stats::attempts},
      {"spans", &Stats::spans},
      {"cycles_skipped", &Stats::cycles_skipped},
      {"cycles_stepped", &Stats::cycles_stepped},
      {"cycles_advanced", &Stats::cycles_advanced},
      {"bail_retire", &Stats::bail_retire},
      {"bail_complete", &Stats::bail_complete},
      {"bail_issue", &Stats::bail_issue},
      {"bail_alloc", &Stats::bail_alloc},
      {"bail_fetch", &Stats::bail_fetch},
      {"bail_noise", &Stats::bail_noise},
      {"bail_smt", &Stats::bail_smt}};
  const Stats& after = m.core().fast_forward_stats();
  for (const auto& [name, field] : kCounters)
    state.counters[name] =
        benchmark::Counter(static_cast<double>(after.*field - before.*field),
                           benchmark::Counter::kAvgIterations);
}

}  // namespace

BENCHMARK(BM_TetGadgetProbe)
    ->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RsbGadgetProbe)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KaslrProbe)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PmuScenarioMeasure)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineConstruction)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  for (const std::string& attack : core::attack_names())
    for (const bool ff : {true, false})
      benchmark::RegisterBenchmark(
          ("BM_Trial<" + attack + ">/" + (ff ? "fast_forward" : "structural"))
              .c_str(),
          BM_Trial, attack, ff)
          ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

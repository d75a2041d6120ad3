// Google-benchmark microbenchmarks: host-side cost of the simulator's core
// operations (one probe of each gadget, one KASLR slot scan, a PMU scenario
// pair). Useful for keeping experiment wall-clock in check as the model
// grows.
#include <benchmark/benchmark.h>

#include "core/attacks/common.h"
#include "core/attacks/kaslr.h"
#include "core/gadgets.h"
#include "core/pmu_toolset.h"
#include "os/machine.h"

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

}  // namespace

BENCHMARK(BM_TetGadgetProbe)
    ->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RsbGadgetProbe)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KaslrProbe)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PmuScenarioMeasure)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineConstruction)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();

// Figure 2 reproduction: the three-stage PMU analysis flow — preparation
// (event catalog), online collection (per-event scenario runs), offline
// analysis (differential filtering) — driven end-to-end for the TET-CC
// scene on the i7-7700 model and the TET-KASLR scene on the i9-10980XE.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/pmu_toolset.h"
#include "os/machine.h"

using namespace whisper;

namespace {

void run_flow(const std::string& what, os::Machine& m,
              const core::PmuToolset::Scenario& baseline,
              const core::PmuToolset::Scenario& variant,
              const char* base_name, const char* var_name) {
  bench::subheading(what + " on " + m.config().name);
  core::PmuToolset ts(m);

  // Stage 1: preparation.
  const auto catalog = ts.catalog();
  std::printf("[stage 1: preparation]    %zu PMU events from the %s perf "
              "list\n",
              catalog.size(),
              m.config().vendor == uarch::Vendor::Intel ? "Intel" : "AMD");

  // Stage 2: online collection (one event at a time, median of repeats).
  const auto raw = ts.collect(baseline, variant, 5);
  std::printf("[stage 2: collection]     %zu raw (event, baseline, variant) "
              "records\n",
              raw.size());

  // Stage 3: offline analysis — differential filter.
  const auto significant = core::PmuToolset::filter_significant(raw, 0.05, 1);
  std::printf("[stage 3: analysis]       %zu events survive the "
              "differential filter\n\n",
              significant.size());
  std::printf("%s", core::PmuToolset::report(significant,
                                             "significant events "
                                             "(|rel delta| desc):",
                                             base_name, var_name)
                        .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  stats::Flags("fig2_toolset").parse(argc, argv);
  bench::heading("Figure 2 — Analysis flow using the PMU toolset");

  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    run_flow("TET-CC trigger analysis", m, core::scenario_tet_cc(false),
             core::scenario_tet_cc(true), "not-trig", "trig");
  }
  {
    os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE});
    run_flow("TET-KASLR mapped/unmapped analysis", m,
             core::scenario_kaslr(false), core::scenario_kaslr(true),
             "unmapped", "mapped");
  }
  {
    os::Machine m({.model = uarch::CpuModel::Zen3Ryzen5_5600G});
    run_flow("TET-CC trigger analysis (AMD event list)", m,
             core::scenario_tet_cc(false), core::scenario_tet_cc(true),
             "not-trig", "trig");
  }
  return 0;
}

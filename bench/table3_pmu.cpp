// Table 3 reproduction: key performance-monitor counter values for each
// analysis scene, measured against the model and printed next to the
// paper's numbers. The contract is the *sign and rough magnitude* of each
// delta, not the absolute counts (different microcode, different silicon).
//
// Exits 1 unless the rows whose sign differs from the paper are exactly the
// two EXPERIMENTS.md documents (Zen 3 de_dis_uop_queue_empty_di0, and
// INT_MISC.RECOVERY_CYCLES in the §5.2.5 flow scene).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/pmu_toolset.h"
#include "os/machine.h"

using namespace whisper;

namespace {

struct PaperEntry {
  uarch::PmuEvent event;
  double paper_baseline;  // "Jcc not Trigger" / "unmapped"
  double paper_variant;   // "Jcc Trigger" / "mapped"
};

struct SignCount {
  int rows = 0;
  /// "<scene>: <event>" for every row whose delta sign differs.
  std::vector<std::string> differs;
};

void run_scene(SignCount& count, const std::string& scene,
               const std::string& title, os::Machine& m,
               const core::PmuToolset::Scenario& baseline,
               const core::PmuToolset::Scenario& variant,
               const char* base_name, const char* var_name,
               const std::vector<PaperEntry>& entries) {
  bench::subheading(title);
  core::PmuToolset ts(m);
  // Warm the machine so cold-start cache effects don't pollute the scene.
  baseline(m);
  variant(m);

  std::printf("%-52s %10s %10s | %10s %10s | %s\n", "Event", base_name,
              var_name, "paper", "paper", "delta sign");
  std::printf("%s\n", std::string(110, '-').c_str());
  for (const PaperEntry& e : entries) {
    const core::EventRecord r = ts.measure(e.event, baseline, variant);
    const double model_delta = r.delta();
    const double paper_delta = e.paper_variant - e.paper_baseline;
    const bool same_sign =
        (model_delta == 0 && paper_delta == 0) ||
        (model_delta > 0) == (paper_delta > 0);
    std::printf("%-52s %10.0f %10.0f | %10.0f %10.0f | %s\n",
                uarch::to_string(e.event).c_str(), r.baseline, r.variant,
                e.paper_baseline, e.paper_variant,
                same_sign ? "matches" : "DIFFERS");
    ++count.rows;
    if (!same_sign)
      count.differs.push_back(scene + ": " + uarch::to_string(e.event));
  }
}

}  // namespace

int main() {
  bench::heading("Table 3 — Key performance monitor counter values");
  std::printf("model counts | paper counts; 'matches' = same delta sign\n");
  SignCount count;

  {
    os::Machine m({.model = uarch::CpuModel::SkylakeI7_6700});
    run_scene(count, "skylake-cc",
              "Core i7-6700, TET-CC (Jcc not-trigger vs trigger)", m,
              core::scenario_tet_cc(false), core::scenario_tet_cc(true),
              "not-trig", "trig",
              {{uarch::PmuEvent::BR_MISP_EXEC_INDIRECT, 0, 1},
               {uarch::PmuEvent::BR_MISP_EXEC_ALL_BRANCHES, 0, 2},
               {uarch::PmuEvent::RESOURCE_STALLS_ANY, 15, 21}});
  }
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    run_scene(count, "kabylake-cc",
              "Core i7-7700, TET-CC (frontend delivery)", m,
              core::scenario_tet_cc(false), core::scenario_tet_cc(true),
              "not-trig", "trig",
              {{uarch::PmuEvent::BR_MISP_EXEC_INDIRECT, 0, 1},
               {uarch::PmuEvent::BR_MISP_EXEC_ALL_BRANCHES, 0, 2},
               {uarch::PmuEvent::IDQ_DSB_UOPS, 119, 115},
               {uarch::PmuEvent::IDQ_MS_DSB_CYCLES, 33, 26},
               {uarch::PmuEvent::IDQ_DSB_CYCLES_OK, 54, 43},
               {uarch::PmuEvent::IDQ_DSB_CYCLES_ANY, 76, 60},
               {uarch::PmuEvent::IDQ_MS_MITE_UOPS, 77, 97},
               {uarch::PmuEvent::IDQ_ALL_MITE_CYCLES_ANY_UOPS, 35, 45},
               {uarch::PmuEvent::IDQ_MS_UOPS, 228, 208},
               {uarch::PmuEvent::UOPS_EXECUTED_CORE_CYCLES_NONE, 110, 116}});
  }
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    run_scene(count, "kabylake-md",
              "Core i7-7700, TET-MD (pipeline & backend)", m,
              core::scenario_tet_md(false), core::scenario_tet_md(true),
              "not-trig", "trig",
              {{uarch::PmuEvent::RESOURCE_STALLS_ANY, 15, 21},
               {uarch::PmuEvent::CYCLE_ACTIVITY_STALLS_TOTAL, 320, 331},
               {uarch::PmuEvent::UOPS_EXECUTED_STALL_CYCLES, 325, 332},
               {uarch::PmuEvent::CYCLE_ACTIVITY_CYCLES_MEM_ANY, 142, 141},
               {uarch::PmuEvent::INT_MISC_RECOVERY_CYCLES_ANY, 24, 29},
               {uarch::PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES, 27, 39},
               {uarch::PmuEvent::UOPS_ISSUED_ANY, 334, 319},
               {uarch::PmuEvent::UOPS_ISSUED_STALL_CYCLES, 394, 404},
               {uarch::PmuEvent::RS_EVENTS_EMPTY_CYCLES, 202, 218}});
  }
  {
    os::Machine m({.model = uarch::CpuModel::Zen3Ryzen5_5600G});
    run_scene(count, "zen3-cc",
              "Ryzen 5 5600G, TET-CC (AMD events)", m,
              core::scenario_tet_cc(false), core::scenario_tet_cc(true),
              "not-trig", "trig",
              {{uarch::PmuEvent::BP_L1_BTB_CORRECT, 493, 511},
               {uarch::PmuEvent::BP_L1_TLB_FETCH_HIT, 914, 938},
               {uarch::PmuEvent::DE_DIS_UOP_QUEUE_EMPTY_DI0, 182, 195},
               {uarch::PmuEvent::
                    DE_DIS_DISPATCH_TOKEN_STALLS2_RETIRE_TOKEN_STALL,
                4, 84},
               {uarch::PmuEvent::IC_FW32, 661, 690}});
  }
  {
    os::Machine m({.model = uarch::CpuModel::SkylakeI7_6700});
    run_scene(count, "skylake-flow",
              "Core i7-6700, Transient Execution Flow (§5.2.5, padded "
              "configuration)", m,
              core::scenario_flow(false, 128), core::scenario_flow(true, 128),
              "not-trig", "trig",
              {{uarch::PmuEvent::UOPS_ISSUED_ANY, 684, 603},
               {uarch::PmuEvent::INT_MISC_RECOVERY_CYCLES, 19, 15},
               {uarch::PmuEvent::ICACHE_16B_IFDATA_STALL, 2, 0}});
  }
  {
    os::Machine m({.model = uarch::CpuModel::CometLakeI9_10980XE});
    run_scene(count, "cometlake-kaslr",
              "Core i9-10980XE, TET-KASLR (unmapped vs mapped)", m,
              core::scenario_kaslr(false), core::scenario_kaslr(true),
              "unmapped", "mapped",
              {{uarch::PmuEvent::DTLB_LOAD_MISSES_MISS_CAUSES_A_WALK, 2, 0},
               {uarch::PmuEvent::DTLB_LOAD_MISSES_WALK_ACTIVE, 62, 0},
               {uarch::PmuEvent::ITLB_MISSES_WALK_ACTIVE, 19, 0}});
  }

  std::printf(
      "\nNote: paper 'mapped' columns are 0 because the probe hits the "
      "fault before the walker engages;\nthe model reports the same sign "
      "(mapped << unmapped) with its own magnitudes.\n");

  const std::vector<std::string> documented = {
      "zen3-cc: " + uarch::to_string(
                        uarch::PmuEvent::DE_DIS_UOP_QUEUE_EMPTY_DI0),
      "skylake-flow: " +
          uarch::to_string(uarch::PmuEvent::INT_MISC_RECOVERY_CYCLES)};
  const bool ok = count.differs == documented;
  std::printf("\n%d of %d rows match the paper's delta sign; the mismatches "
              "%s the two EXPERIMENTS.md documents.\n",
              count.rows - static_cast<int>(count.differs.size()), count.rows,
              ok ? "are exactly" : "are NOT");
  if (!ok)
    for (const std::string& d : count.differs)
      std::printf("  differs: %s\n", d.c_str());
  return ok ? 0 : 1;
}

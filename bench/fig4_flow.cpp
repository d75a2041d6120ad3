// Figure 4 reproduction: the transient-execution control-flow experiment of
// §5.2.5. Sweeping the number of nops between the branch join point and the
// window-ending fence changes which path (trigger ③ vs not-trigger) issues
// more µops — including the paper's sign flip:
//
//  "If the number of nop instructions preceding the mfence is increased,
//   such that the not trigger path does not encounter the mfence before the
//   rollback, the opposite result is obtained, with fewer µops being issued
//   in the trigger path."
//
// Each padding point is measured on its own private machine (warmed the
// same way), so the sweep fans out across the whisper::runner Executor
// (`--jobs N`) with rows bit-identical to the sequential order.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/pmu_toolset.h"
#include "obs/chrome_trace.h"
#include "obs/topdown.h"
#include "os/machine.h"
#include "runner/executor.h"
#include "uarch/trace.h"

using namespace whisper;

namespace {

struct Row {
  double uops_base = 0, uops_var = 0;
  double recov_base = 0, recov_var = 0;
  [[nodiscard]] double delta() const { return uops_var - uops_base; }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_harness_flags(argc, argv, "fig4_flow");
  bench::heading("Figure 4 — Transient-execution control flow (i7-6700 "
                 "model): UOPS_ISSUED.ANY / INT_MISC.RECOVERY_CYCLES vs "
                 "nop padding");

  const int pads[] = {0, 8, 16, 32, 48, 64, 96, 128, 192};
  const std::size_t n_pads = sizeof(pads) / sizeof(pads[0]);

  runner::Executor ex(args.jobs);
  runner::Progress meter("fig4_flow", n_pads, args.progress);
  runner::WallTimer timer;
  const std::vector<Row> rows = ex.map(
      n_pads,
      [&pads](std::size_t i) {
        os::Machine m({.model = uarch::CpuModel::SkylakeI7_6700});
        core::PmuToolset ts(m);
        const auto base = core::scenario_flow(false, pads[i]);
        const auto var = core::scenario_flow(true, pads[i]);
        base(m);
        var(m);
        const auto uops =
            ts.measure(uarch::PmuEvent::UOPS_ISSUED_ANY, base, var);
        const auto recov =
            ts.measure(uarch::PmuEvent::INT_MISC_RECOVERY_CYCLES, base, var);
        return Row{uops.baseline, uops.variant, recov.baseline,
                   recov.variant};
      },
      &meter);
  meter.finish(timer.seconds(), ex.jobs());

  std::printf("%8s | %12s %12s %8s | %12s %12s\n", "pad nops",
              "uops !trig", "uops trig", "delta", "recov !trig",
              "recov trig");
  std::printf("%s\n", std::string(78, '-').c_str());
  for (std::size_t i = 0; i < n_pads; ++i)
    std::printf("%8d | %12.0f %12.0f %+8.0f | %12.0f %12.0f\n", pads[i],
                rows[i].uops_base, rows[i].uops_var, rows[i].delta(),
                rows[i].recov_base, rows[i].recov_var);

  const double first_delta = rows.front().delta();
  const double last_delta = rows.back().delta();
  std::printf("\npath ③ evidence: with no padding the TRIGGER path issues "
              "more uops (delta %+.0f);\nwith long padding the sign flips "
              "(delta %+.0f) because the not-trigger path streams nops while "
              "the\ntrigger path pays the resteer bubble — matching §5.2.5.\n",
              first_delta, last_delta);
  const bool flip = first_delta > 0 && last_delta < 0;
  std::printf("sign flip reproduced: %s\n", flip ? "yes" : "NO");

  // --trace-out: the pipeline lifecycle of one unpadded TRIGGER-path
  // execution — the resteer, the transient window and the terminal machine
  // clear are all visible as spans/markers in the exported trace.
  if (!args.trace_out.empty()) {
    os::Machine m({.model = uarch::CpuModel::SkylakeI7_6700});
    uarch::EventLog log;
    m.core().set_trace(&log);
    core::scenario_flow(true, 0)(m);
    m.core().set_trace(nullptr);
    if (obs::write_chrome_trace(log, args.trace_out))
      std::printf("\n(pipeline trace of the trigger path written to %s)\n",
                  args.trace_out.c_str());
  }

  if (!args.metrics_out.empty()) {
    obs::MetricsRegistry reg;
    reg.set_counter("fig4.sign_flip", flip ? 1 : 0);
    for (std::size_t i = 0; i < n_pads; ++i) {
      const std::string p = "fig4.pad" + std::to_string(pads[i]) + ".";
      reg.set_gauge(p + "uops_not_trigger", rows[i].uops_base);
      reg.set_gauge(p + "uops_trigger", rows[i].uops_var);
      reg.set_gauge(p + "uops_delta", rows[i].delta());
      reg.set_gauge(p + "recovery_not_trigger", rows[i].recov_base);
      reg.set_gauge(p + "recovery_trigger", rows[i].recov_var);
    }
    bench::write_metrics(reg, args.metrics_out);
  }
  return flip ? 0 : 1;
}

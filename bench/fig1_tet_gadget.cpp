// Figure 1 reproduction: the TET gadget (Fig. 1a) and its result (Fig. 1b) —
// the ToTE frequency plot over the test-value sweep, and the argmax panels
// showing that the secret value's probes stand out.
//
// Paper: "In the highlighted region within the red box, it becomes
// non-trivial that the ToTE surpasses others when Jcc is triggered."
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/analyzer.h"
#include "core/attacks/common.h"
#include "core/gadgets.h"
#include "obs/chrome_trace.h"
#include "obs/topdown.h"
#include "os/machine.h"
#include "uarch/trace.h"

using namespace whisper;

int main(int argc, char** argv) {
  bench::HarnessFlags args;
  std::string plot_dir;
  stats::Flags flags("fig1_tet_gadget");
  bench::add_harness_flags(flags, args);
  flags.positional("DIR",
                   "write the plot data (fig1_tote_hist.dat, "
                   "fig1_argmax.dat) into DIR",
                   plot_dir);
  flags.parse(argc, argv);
  bench::heading(
      "Figure 1 — Gadget of TET and result (Intel Core i7-7700 model)");

  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  constexpr std::uint8_t kSecret = 'S';
  m.poke8(os::Machine::kSharedBase, kSecret);

  const core::GadgetProgram g = core::make_tet_gadget(
      {.window = core::preferred_window(m.config()),
       .source = core::SecretSource::SharedMemory});

  std::printf("\nGadget (Fig. 1a) — disassembly of the probe program:\n%s\n",
              g.prog.disassemble().c_str());

  constexpr int kBatches = 16;
  core::ArgmaxAnalyzer analyzer(core::Polarity::Max);
  stats::Histogram trigger_hist, other_hist;

  auto regs = bench::regs_with({{isa::Reg::RCX, core::kNullProbeAddress},
                                {isa::Reg::RDX, os::Machine::kSharedBase}});

  // --trace-out: record one *triggered* gadget execution (test_value ==
  // secret) before the sweep — the Fig. 1 event stream the golden-trace
  // test pins down, exported as a Chrome/Perfetto trace.
  if (!args.trace_out.empty()) {
    uarch::EventLog log;
    regs[static_cast<std::size_t>(isa::Reg::RBX)] = kSecret;
    m.core().set_trace(&log);
    (void)core::run_tote(m, g, regs);
    m.core().set_trace(nullptr);
    if (obs::write_chrome_trace(log, args.trace_out))
      std::printf("\n(pipeline trace of one triggered probe written to %s)\n",
                  args.trace_out.c_str());
  }
  const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int tv = 0; tv <= 255; ++tv) {
      regs[static_cast<std::size_t>(isa::Reg::RBX)] =
          static_cast<std::uint64_t>(tv);
      const std::uint64_t tote = core::run_tote(m, g, regs);
      analyzer.add(tv, tote);
      (tv == kSecret ? trigger_hist : other_hist)
          .add(static_cast<std::int64_t>(tote));
    }
    analyzer.end_batch();
  }

  bench::subheading("Fig. 1b (top): ToTE frequency — Jcc NOT triggered "
                    "(test_value != 'S')");
  std::printf("%s", other_hist.ascii(10, 46).c_str());
  bench::subheading(
      "Fig. 1b (top): ToTE frequency — Jcc TRIGGERED (test_value == 'S')");
  std::printf("%s", trigger_hist.ascii(10, 46).c_str());
  std::printf("\nmean ToTE: not-triggered %.1f cycles, triggered %.1f "
              "cycles (delta %+.1f)\n",
              other_hist.mean(), trigger_hist.mean(),
              trigger_hist.mean() - other_hist.mean());

  bench::subheading("Fig. 1b (bottom): argmax counts per test value");
  const auto& votes = analyzer.votes();
  // Print the top 5 vote-getters.
  std::vector<int> order(256);
  for (int i = 0; i < 256; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return votes[static_cast<std::size_t>(a)] >
           votes[static_cast<std::size_t>(b)];
  });
  for (int i = 0; i < 5; ++i) {
    const int tv = order[static_cast<std::size_t>(i)];
    std::printf("  test_value %3d ('%c')  argmax count %2u / %d%s\n", tv,
                tv >= 32 && tv < 127 ? static_cast<char>(tv) : '?',
                votes[static_cast<std::size_t>(tv)], kBatches,
                tv == kSecret ? "   <-- secret" : "");
  }

  // Optional: dump plot data (gnuplot/pandas friendly) to DIR.
  if (!plot_dir.empty()) {
    const std::string& dir = plot_dir;
    int written = 0;
    if (FILE* f = std::fopen((dir + "/fig1_tote_hist.dat").c_str(), "w")) {
      std::fprintf(f, "# tote_cycles count_trigger count_other\n");
      for (const auto& [v, c] : other_hist.buckets())
        std::fprintf(f, "%lld %llu %llu\n", (long long)v,
                     (unsigned long long)trigger_hist.count(v),
                     (unsigned long long)c);
      written += std::fclose(f) == 0;
    }
    if (FILE* f = std::fopen((dir + "/fig1_argmax.dat").c_str(), "w")) {
      std::fprintf(f, "# test_value argmax_votes mean_tote\n");
      const auto means = analyzer.mean_tote_by_value();
      for (int tv = 0; tv < 256; ++tv)
        std::fprintf(f, "%d %u %.2f\n", tv, votes[(std::size_t)tv],
                     means[(std::size_t)tv]);
      written += std::fclose(f) == 0;
    }
    if (written != 2) {
      std::fprintf(stderr, "fig1_tet_gadget: cannot write plot data into %s\n",
                   dir.c_str());
      return 1;
    }
    std::printf("\n(plot data written to %s/fig1_*.dat)\n", dir.c_str());
  }

  const int decoded = analyzer.decode();
  std::printf("\ndecoded secret: %d ('%c')  —  %s\n", decoded,
              static_cast<char>(decoded),
              decoded == kSecret ? "matches Fig. 1 ('S')" : "MISMATCH");

  if (!args.metrics_out.empty()) {
    const uarch::PmuSnapshot delta =
        uarch::pmu_delta(pmu_before, m.core().pmu().snapshot());
    const obs::TopDown td = obs::attribute_cycles(delta);
    obs::MetricsRegistry reg;
    reg.import_pmu(delta);
    reg.set_counter("topdown.total_cycles", td.total_cycles);
    reg.set_counter("topdown.retiring", td.retiring);
    reg.set_counter("topdown.bad_speculation", td.bad_speculation);
    reg.set_counter("topdown.frontend_bound", td.frontend_bound);
    reg.set_counter("topdown.backend_bound", td.backend_bound);
    reg.set_counter("fig1.decoded", static_cast<std::uint64_t>(decoded));
    reg.set_gauge("fig1.tote_delta",
                  trigger_hist.mean() - other_hist.mean());
    reg.add_histogram("fig1.tote_triggered", trigger_hist);
    reg.add_histogram("fig1.tote_not_triggered", other_hist);
    bench::write_metrics(reg, args.metrics_out);
    std::printf("probe sweep top-down: %s\n", td.to_string().c_str());
  }
  return decoded == kSecret ? 0 : 1;
}

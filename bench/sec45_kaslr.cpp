// §4.5 reproduction: the KASLR attack ladder — plain KASLR, KASLR+KPTI
// (512 offsets, < 1 s), KASLR+KPTI+FLARE, Docker — plus the
// prefetch-timing baseline that FLARE defeats, and the AMD negative.
//
// The ten (scenario × attack) cells are independent simulations; they fan
// out through the whisper::runner Executor (`--jobs N`), each on a private
// os::Machine built from the scenario's fixed seed, so the table is
// bit-identical at any job count.
//
// Exits 1 unless every TET-KASLR cell breaks or fails as the paper column
// says and the prefetch baseline fails under FLARE.
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/prefetch_kaslr.h"
#include "bench/bench_util.h"
#include "core/attacks/kaslr.h"
#include "os/machine.h"
#include "runner/executor.h"

using namespace whisper;

namespace {

struct Scenario {
  std::string name;
  os::MachineOptions options;
  const char* paper_tet;       // paper's claim for TET-KASLR
  const char* paper_prefetch;  // expected for the baseline
  bool tet_breaks;             // the paper column, as a verdict
};

struct Cell {
  std::string text;
  bool success = false;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_harness_flags(argc, argv, "sec45_kaslr");
  bench::heading("Section 4.5 — TET-KASLR attack: breaking KASLR");

  const uarch::CpuModel cml = uarch::CpuModel::CometLakeI9_10980XE;
  const std::vector<Scenario> scenarios = {
      {"KASLR (i9-10980XE)", {.model = cml, .seed = 11}, "breaks", "breaks", true},
      {"KASLR + KPTI",
       {.model = cml, .kernel = {.kpti = true}, .seed = 22},
       "breaks (<1 s, 512 offsets)",
       "breaks (EntryBleed)",
       true},
      {"KASLR + KPTI + FLARE",
       {.model = cml, .kernel = {.kpti = true, .flare = true}, .seed = 33},
       "breaks (bypasses FLARE)",
       "defeated by FLARE",
       true},
      {"KASLR + KPTI, Docker",
       {.model = cml, .kernel = {.kpti = true}, .docker = true, .seed = 44},
       "breaks (Docker 24.0.1)",
       "-",
       true},
      {"KASLR (AMD Zen 3)",
       {.model = uarch::CpuModel::Zen3Ryzen5_5600G, .seed = 55},
       "fails (Table 2: no TLB fill on fault)",
       "-",
       false},
  };

  // Cell k: scenario k/2, TET-KASLR when k is even, prefetch baseline when
  // odd. Each worker builds its own Machine — nothing is shared.
  runner::Executor ex(args.jobs);
  runner::Progress meter("sec45_kaslr", scenarios.size() * 2, args.progress);
  runner::WallTimer timer;
  const std::vector<Cell> cells = ex.map(
      scenarios.size() * 2,
      [&scenarios](std::size_t k) {
        const Scenario& sc = scenarios[k / 2];
        os::Machine m(sc.options);
        char buf[96];
        bool success = false;
        if (k % 2 == 0) {
          core::TetKaslr atk(m, {.rounds = 3});
          const auto r = atk.run();
          std::snprintf(buf, sizeof buf, "%s slot %3d, %.4f s, %zu probes",
                        bench::mark(r.success), r.found_slot, r.seconds,
                        r.probes);
          success = r.success;
        } else {
          baseline::PrefetchKaslr atk(m, {.rounds = 3});
          const auto r = atk.run();
          std::snprintf(buf, sizeof buf, "%s slot %3d, %.4f s",
                        bench::mark(r.success), r.found_slot, r.seconds);
          success = r.success;
        }
        return Cell{buf, success};
      },
      &meter);
  meter.finish(timer.seconds(), ex.jobs());

  std::printf("\n%-24s | %-28s | %-28s\n", "configuration",
              "TET-KASLR (model)", "prefetch baseline (model)");
  std::printf("%s\n", std::string(90, '-').c_str());

  bool ok = true;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    std::printf("%-24s | %-28s | %-28s\n", sc.name.c_str(),
                cells[2 * i].text.c_str(), cells[2 * i + 1].text.c_str());
    if (cells[2 * i].success != sc.tet_breaks) {
      std::printf("%-24s |   MISMATCH: TET-KASLR should %s\n", "",
                  sc.tet_breaks ? "break KASLR here" : "fail here");
      ok = false;
    }
    if (sc.options.kernel.flare && cells[2 * i + 1].success) {
      std::printf("%-24s |   MISMATCH: the prefetch baseline should fail "
                  "under FLARE\n", "");
      ok = false;
    }
    std::printf("%-24s |   paper: %-36s baseline expectation: %s\n", "",
                sc.paper_tet, sc.paper_prefetch);
  }

  std::printf("\nKey claims reproduced: TET survives KPTI (trampoline "
              "remnant at +0xe00000), survives FLARE via the\nTLB-fill "
              "double probe, works in Docker, and fails on Zen 3; the "
              "walk-timing baseline dies at FLARE.\n");
  std::printf("%s every cell matches its paper column\n", bench::mark(ok));
  return ok ? 0 : 1;
}

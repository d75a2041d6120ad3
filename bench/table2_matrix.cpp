// Table 2 reproduction: environment × attack success matrix.
//
// Paper columns: TET-CC, TET-MD, TET-ZBL, TET-RSB, TET-KASLR for the five
// evaluation machines. We run each attack end-to-end against the model and
// print our result next to the paper's symbol (✓ / ✗ / ? = not verified).
//
// Each of the 25 cells is one single-trial whisper::runner::RunSpec on its
// own private os::Machine, fanned out through one Executor — `--jobs N`
// parallelises the matrix with cell outcomes bit-identical to `--jobs 1`.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "runner/runner.h"

using namespace whisper;

namespace {

struct PaperRow {
  uarch::CpuModel model;
  const char* cc;
  const char* md;
  const char* zbl;
  const char* rsb;
  const char* kaslr;
};

const PaperRow kPaper[] = {
    {uarch::CpuModel::SkylakeI7_6700, "✓", "✓", "✓", "✓", "✓"},
    {uarch::CpuModel::KabyLakeI7_7700, "✓", "✓", "✓", "✓", "✓"},
    {uarch::CpuModel::CometLakeI9_10980XE, "✓", "✗", "✗", "?", "✓"},
    {uarch::CpuModel::RaptorLakeI9_13900K, "✓", "✗", "✗", "✓", "?"},
    {uarch::CpuModel::Zen3Ryzen5_5600G, "✓", "✗", "✗", "?", "✗"},
};

// One matrix cell, built on a copy of the harness's RunSpec so the shared
// fault knobs (--retries, --fault-plan, ...) apply to it. The per-attack
// knobs (payload sizes, batches, rounds) mirror the sequential harness
// this replaces.
runner::RunSpec cell_spec(runner::RunSpec spec, uarch::CpuModel model,
                          const std::string& attack) {
  spec.model = model;
  spec.attack = attack;
  spec.trials = 1;
  spec.base_seed = 0x7ab1e2;
  if (attack == "cc") {
    spec.batches = 3;
    spec.payload_bytes = 8;
    spec.payload_seed = 1;
  } else if (attack == "md") {
    spec.batches = 4;
    spec.payload_bytes = 4;
    spec.payload_seed = 2;
  } else if (attack == "zbl") {
    spec.batches = 4;
    spec.payload_bytes = 3;
    spec.payload_seed = 3;
  } else if (attack == "rsb") {
    spec.batches = 2;
    spec.payload_bytes = 3;
    spec.payload_seed = 4;
  } else {  // kaslr: sweep rounds
    spec.batches = 2;
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  // The table writes no output file, so it takes no output flag.
  bench::HarnessFlags args;
  stats::Flags flags("table2_matrix");
  bench::add_executor_flags(flags, args);
  bench::add_fault_flags(flags, args);
  flags.parse(argc, argv);
  bench::heading("Table 2 — Environment and experiments");
  std::printf("cell format: model-result (paper-result)\n\n");
  std::printf("%-24s %-12s %-10s %-12s %-12s %-12s %-12s %-12s\n", "CPU",
              "u-arch", "Microcode", "TET-CC", "TET-MD", "TET-ZBL", "TET-RSB",
              "TET-KASLR");
  std::printf("%s\n", std::string(110, '-').c_str());

  const char* kColumns[] = {"cc", "md", "zbl", "rsb", "kaslr"};

  std::vector<runner::RunSpec> specs;
  for (const PaperRow& row : kPaper)
    for (const char* a : kColumns)
      specs.push_back(cell_spec(args.spec, row.model, a));

  runner::Executor ex(args.jobs);
  const auto results = runner::run_many(specs, ex, args.progress);

  bool all_match = true;
  std::size_t cell = 0;
  for (const PaperRow& row : kPaper) {
    const uarch::CpuConfig cfg = uarch::make_config(row.model);
    const char* paper_cells[] = {row.cc, row.md, row.zbl, row.rsb, row.kaslr};
    std::string cells[5];
    for (int c = 0; c < 5; ++c) {
      const bool got = results[cell++].all_succeeded();
      const char* paper = paper_cells[c];
      cells[c] = std::string(bench::mark(got)) + " (" + paper + ")";
      // '?' cells can't mismatch; otherwise compare.
      if (std::string(paper) != "?" && (std::string(paper) == "✓") != got)
        all_match = false;
    }
    std::printf("%-24s %-12s %-10s %-14s %-14s %-14s %-14s %-14s\n",
                cfg.name.c_str(), cfg.uarch_name.c_str(),
                cfg.microcode.c_str(), cells[0].c_str(), cells[1].c_str(),
                cells[2].c_str(), cells[3].c_str(), cells[4].c_str());
  }

  std::printf("\n%s\n",
              all_match
                  ? "All determinate paper cells reproduced."
                  : "MISMATCH against the paper's determinate cells!");
  std::printf("('?' cells: the paper did not verify; our model's prediction "
              "is shown.)\n");
  return all_match ? 0 : 1;
}

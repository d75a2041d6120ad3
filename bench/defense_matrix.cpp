// Defense matrix: the full attack × defense-stack × CPU-preset × noise grid.
//
// Every registered attack runs against every requested defense stack on
// every CPU preset under every noise profile — the systematization view the
// paper's Table 1 sketches for one machine, generalized over the whole
// defense registry (src/defense). Each cell is a whisper::runner::RunSpec
// fanned out through one Executor via run_many, so `--jobs N` parallelises
// the grid with results bit-identical to `--jobs 1`; `--check` proves it by
// re-running the whole grid sequentially and comparing the JSON trajectory
// byte-for-byte (the tier-2 `bench_matrix_json` ctest entry runs this).
//
// The --json trajectory is *self-validated*: before it is written, the
// harness re-parses its own bytes with stats::json_parse and checks the
// grid is complete (every coordinate exactly once, in generation order) and
// the summary totals match a recomputation from the cells. A trajectory
// that fails its own audit is a harness bug, and the run exits non-zero
// without writing it.
//
// `defense_matrix --help` lists its flags. The checked-in
// docs/DEFENSE_MATRIX.md is this harness's --report output.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "noise/noise.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "stats/json.h"
#include "uarch/config.h"

using namespace whisper;

namespace {

// Short CLI keys for the five Table-2 presets (uarch::to_string yields the
// marketing names, which make poor flag values).
struct CpuKey {
  const char* key;
  uarch::CpuModel model;
};
constexpr CpuKey kCpuKeys[] = {
    {"skylake", uarch::CpuModel::SkylakeI7_6700},
    {"kabylake", uarch::CpuModel::KabyLakeI7_7700},
    {"cometlake", uarch::CpuModel::CometLakeI9_10980XE},
    {"raptorlake", uarch::CpuModel::RaptorLakeI9_13900K},
    {"zen3", uarch::CpuModel::Zen3Ryzen5_5600G},
};

const CpuKey* find_cpu(const std::string& key) {
  for (const CpuKey& c : kCpuKeys)
    if (key == c.key) return &c;
  return nullptr;
}

/// The default stacks: the undefended baseline, every registered defense
/// alone, the paper's kernel hardening stack, and the full uarch stack.
std::vector<std::string> default_stacks() {
  std::vector<std::string> out = {"none"};
  for (const std::string& name : defense::defense_names()) out.push_back(name);
  out.push_back("kpti+flare+fgkaslr");
  out.push_back("lfence+window:depth=8+retpoline+flushclear");
  return out;
}

/// The grid axes and outputs; spec.trials and spec.payload_bytes are
/// every cell's.
struct MatrixArgs : bench::HarnessFlags {
  std::vector<std::string> attacks = core::attack_names();
  std::vector<std::string> cpus = {"skylake", "kabylake", "cometlake",
                                   "raptorlake", "zen3"};
  std::vector<std::string> stacks = default_stacks();
  std::vector<std::string> noise = {"off", "desktop"};
  std::string report;
  bool check = false;
};

/// One grid coordinate. The generation order (attack → stack → cpu → noise,
/// all innermost-last) is part of the trajectory contract: the validator
/// replays it.
struct Cell {
  std::string attack;
  std::string stack;   // canonical combo string (defense::format_list)
  std::string cpu;     // CLI key
  std::string noise;   // CLI key
  runner::RunResult result;

  [[nodiscard]] double success_rate() const {
    return result.trials.empty()
               ? 0.0
               : static_cast<double>(result.successes) /
                     static_cast<double>(result.trials.size());
  }
  [[nodiscard]] double error_rate() const {
    return result.total_bytes
               ? static_cast<double>(result.total_byte_errors) /
                     static_cast<double>(result.total_bytes)
               : 1.0 - success_rate();
  }
};

/// Deterministic trajectory: no wall-clock, no job count — the bytes are a
/// pure function of the grid, which is what --check and the tier-2 test
/// compare across --jobs values.
std::string render_json(const MatrixArgs& m, const std::vector<Cell>& cells) {
  runner::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value(std::string("whisper.defense_matrix.v1"));
  w.key("attacks");
  w.begin_array();
  for (const auto& a : m.attacks) w.value(a);
  w.end_array();
  w.key("defenses");
  w.begin_array();
  for (const auto& s : m.stacks)
    w.value(defense::format_list(defense::parse_list(s)));
  w.end_array();
  w.key("cpus");
  w.begin_array();
  for (const auto& c : m.cpus) w.value(c);
  w.end_array();
  w.key("noise");
  w.begin_array();
  for (const auto& n : m.noise) w.value(n);
  w.end_array();
  w.key("trials");
  w.value(m.spec.trials);
  w.key("payload_bytes");
  w.value(static_cast<std::uint64_t>(m.spec.payload_bytes));
  w.key("cells");
  w.begin_array();
  std::uint64_t total_successes = 0;
  std::uint64_t total_byte_errors = 0;
  for (const Cell& c : cells) {
    total_successes += c.result.successes;
    total_byte_errors += c.result.total_byte_errors;
    w.begin_object();
    w.key("attack");
    w.value(c.attack);
    w.key("defenses");
    w.value(c.stack);
    w.key("cpu");
    w.value(c.cpu);
    w.key("noise");
    w.value(c.noise);
    w.key("trials");
    w.value(static_cast<std::uint64_t>(c.result.trials.size()));
    w.key("successes");
    w.value(static_cast<std::uint64_t>(c.result.successes));
    w.key("success_rate");
    w.value(c.success_rate());
    w.key("bytes");
    w.value(static_cast<std::uint64_t>(c.result.total_bytes));
    w.key("byte_errors");
    w.value(static_cast<std::uint64_t>(c.result.total_byte_errors));
    w.key("error_rate");
    w.value(c.error_rate());
    w.key("probes");
    w.value(static_cast<std::uint64_t>(c.result.total_probes));
    w.key("gave_up");
    w.value(static_cast<std::uint64_t>(c.result.total_gave_up));
    w.key("confidence_mean");
    w.value(c.result.confidence.mean);
    w.key("sim_seconds_mean");
    w.value(c.result.seconds.mean);
    w.end_object();
  }
  w.end_array();
  // The audit block the self-validation recomputes from the cells.
  w.key("check");
  w.begin_object();
  w.key("cells");
  w.value(static_cast<std::uint64_t>(cells.size()));
  w.key("successes");
  w.value(total_successes);
  w.key("byte_errors");
  w.value(total_byte_errors);
  w.end_object();
  w.end_object();
  return w.str();
}

/// Self-validation: parse the trajectory's own bytes back and audit it —
/// grid complete and in generation order, every cell carrying the full key
/// set, summary totals matching a recomputation. Returns an empty string on
/// success, the failure description otherwise.
std::string validate_matrix_json(const std::string& body,
                                 const MatrixArgs& m) {
  stats::JsonValue doc;
  try {
    doc = stats::json_parse(body);
  } catch (const std::exception& e) {
    return std::string("trajectory does not re-parse: ") + e.what();
  }
  const stats::JsonValue* schema = doc.get("schema");
  if (schema == nullptr || schema->string != "whisper.defense_matrix.v1")
    return "schema tag missing or wrong";
  const stats::JsonValue* cells = doc.get("cells");
  if (cells == nullptr || !cells->is_array()) return "cells array missing";
  const std::size_t expected =
      m.attacks.size() * m.stacks.size() * m.cpus.size() * m.noise.size();
  if (cells->array.size() != expected)
    return "grid incomplete: " + std::to_string(cells->array.size()) +
           " cells, expected " + std::to_string(expected);

  static const char* kCellKeys[] = {
      "attack", "defenses", "cpu", "noise", "trials", "successes",
      "success_rate", "bytes", "byte_errors", "error_rate", "probes",
      "gave_up", "confidence_mean", "sim_seconds_mean"};
  std::uint64_t successes = 0;
  std::uint64_t byte_errors = 0;
  std::size_t i = 0;
  for (const auto& attack : m.attacks) {
    for (const auto& stack : m.stacks) {
      const std::string canonical =
          defense::format_list(defense::parse_list(stack));
      for (const auto& cpu : m.cpus) {
        for (const auto& nz : m.noise) {
          const stats::JsonValue& cell = cells->array[i++];
          const std::string where = "cell " + std::to_string(i - 1);
          for (const char* key : kCellKeys)
            if (cell.get(key) == nullptr)
              return where + " missing key '" + key + "'";
          if (cell.get("attack")->string != attack ||
              cell.get("defenses")->string != canonical ||
              cell.get("cpu")->string != cpu ||
              cell.get("noise")->string != nz)
            return where + " out of generation order (got " +
                   cell.get("attack")->string + "/" +
                   cell.get("defenses")->string + "/" +
                   cell.get("cpu")->string + "/" + cell.get("noise")->string +
                   ", expected " + attack + "/" + canonical + "/" + cpu + "/" +
                   nz + ")";
          successes += static_cast<std::uint64_t>(
              cell.get("successes")->number);
          byte_errors += static_cast<std::uint64_t>(
              cell.get("byte_errors")->number);
        }
      }
    }
  }
  const stats::JsonValue* check = doc.get("check");
  if (check == nullptr || !check->is_object()) return "check block missing";
  if (static_cast<std::uint64_t>(check->get("cells")->number) != expected ||
      static_cast<std::uint64_t>(check->get("successes")->number) !=
          successes ||
      static_cast<std::uint64_t>(check->get("byte_errors")->number) !=
          byte_errors)
    return "check totals disagree with the cells";
  return "";
}

void render_percent(char* buf, std::size_t n, double rate) {
  std::snprintf(buf, n, "%.0f%%", 100.0 * rate);
}

/// The Table-1-style markdown view: one table per noise profile, rows the
/// attacks, columns the defense stacks, each entry the success rate over
/// cpus × trials; then the mitigation summary (stacks that drive a
/// baseline-successful attack to zero).
std::string render_report(const MatrixArgs& m, const std::vector<Cell>& cells,
                          const std::string& invocation) {
  std::string out;
  out += "# Defense matrix — attack × defense systematization\n\n";
  out += "Generated by `" + invocation + "`. Do not edit by hand;\n";
  out += "re-run the harness to refresh (see docs/REPRODUCING.md).\n\n";
  out += "Grid: " + std::to_string(m.attacks.size()) + " attacks × " +
         std::to_string(m.stacks.size()) + " defense stacks × " +
         std::to_string(m.cpus.size()) + " CPU presets × " +
         std::to_string(m.noise.size()) + " noise profiles, " +
         std::to_string(m.spec.trials) +
         " trial(s) per cell. Entries are attack success rates over\n"
         "CPU presets × trials (100% = the defense does not stop the "
         "attack; 0% = fully mitigated).\n";

  // cells is in generation order: attack → stack → cpu → noise.
  const std::size_t per_attack = m.stacks.size() * m.cpus.size() *
                                 m.noise.size();
  const std::size_t per_stack = m.cpus.size() * m.noise.size();
  auto at = [&](std::size_t a, std::size_t s, std::size_t c,
                std::size_t n) -> const Cell& {
    return cells[a * per_attack + s * per_stack + c * m.noise.size() + n];
  };

  for (std::size_t n = 0; n < m.noise.size(); ++n) {
    out += "\n## Noise: " + m.noise[n] + "\n\n";
    out += "| attack |";
    for (const auto& s : m.stacks)
      out += " " + defense::format_list(defense::parse_list(s)) + " |";
    out += "\n|---|";
    for (std::size_t s = 0; s < m.stacks.size(); ++s) out += "---|";
    out += "\n";
    for (std::size_t a = 0; a < m.attacks.size(); ++a) {
      out += "| " + m.attacks[a] + " |";
      for (std::size_t s = 0; s < m.stacks.size(); ++s) {
        std::size_t wins = 0;
        std::size_t total = 0;
        for (std::size_t c = 0; c < m.cpus.size(); ++c) {
          const Cell& cell = at(a, s, c, n);
          wins += cell.result.successes;
          total += cell.result.trials.size();
        }
        char pct[16];
        render_percent(pct, sizeof pct,
                       total ? static_cast<double>(wins) /
                                   static_cast<double>(total)
                             : 0.0);
        out += " " + std::string(pct) + " |";
      }
      out += "\n";
    }
  }

  out += "\n## Mitigation summary\n\n";
  bool any = false;
  for (std::size_t s = 0; s < m.stacks.size(); ++s) {
    const std::string canonical =
        defense::format_list(defense::parse_list(m.stacks[s]));
    if (canonical == "none") continue;
    std::string stopped;
    for (std::size_t a = 0; a < m.attacks.size(); ++a) {
      std::size_t base_wins = 0;
      std::size_t wins = 0;
      for (std::size_t c = 0; c < m.cpus.size(); ++c) {
        for (std::size_t n = 0; n < m.noise.size(); ++n) {
          base_wins += at(a, 0, c, n).result.successes;  // stack 0 = baseline
          wins += at(a, s, c, n).result.successes;
        }
      }
      if (base_wins > 0 && wins == 0) {
        if (!stopped.empty()) stopped += ", ";
        stopped += m.attacks[a];
      }
    }
    if (!stopped.empty()) {
      out += "- `" + canonical + "` fully mitigates: " + stopped + "\n";
      any = true;
    }
  }
  if (!any)
    out += "- no stack fully mitigates any baseline-successful attack on "
           "this grid\n";
  return out;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  MatrixArgs m;
  m.spec.payload_bytes = 4;
  stats::Flags flags("defense_matrix");
  bench::add_harness_flags(flags, m);
  flags.list("attacks", "comma-separated registry names (default: all)",
             m.attacks, bench::known_attack);
  flags.list("cpus",
             "comma-separated preset keys: skylake, kabylake, cometlake, "
             "raptorlake, zen3 (default: all five)",
             m.cpus, [](const std::string& c) {
               if (find_cpu(c) == nullptr)
                 throw std::invalid_argument("names no preset '" + c + "'");
             });
  flags.list("defenses",
             "comma-separated defense stacks, each a '+'-joined combo in the "
             "--defense grammar; none = undefended (default: the "
             "systematization set)",
             m.stacks, [](const std::string& s) {
               defense::validate(defense::parse_list(s));
             });
  flags.list("noise",
             "comma-separated profiles: off, quiet, desktop, noisy-server "
             "(default off,desktop)",
             m.noise, [](const std::string& n) {
               if (!noise::NoiseProfile::by_name(n))
                 throw std::invalid_argument("names no profile '" + n + "'");
             });
  runner::add_flag(flags, m.spec, "trials", "", "trials per cell (default 1)");
  runner::add_flag(flags, m.spec, "payload_bytes", "",
                   "payload bytes per channel trial (default 4)");
  flags.value("report", "PATH", "write the Table-1-style markdown report",
              m.report);
  flags.toggle("check",
               "re-run the grid at --jobs 1 and fail on any trajectory byte "
               "difference",
               m.check);
  flags.parse(argc, argv);

  bench::heading("Defense matrix — attack × defense × CPU × noise");

  // Grid in the generation order the validator replays.
  std::vector<Cell> cells;
  std::vector<runner::RunSpec> specs;
  for (const std::string& attack : m.attacks) {
    for (const std::string& stack : m.stacks) {
      const std::vector<defense::DefenseSpec> defenses =
          defense::parse_list(stack);
      for (const std::string& cpu : m.cpus) {
        for (const std::string& nz : m.noise) {
          runner::RunSpec spec = m.spec;
          spec.model = find_cpu(cpu)->model;
          spec.attack = attack;
          spec.base_seed = 0xdefe5eedULL;
          spec.defenses = defenses;
          spec.noise = *noise::NoiseProfile::by_name(nz);
          spec.payload_seed = 0xbeefULL;
          if (attack == "kaslr") spec.batches = 2;  // sweep rounds
          cells.push_back(
              {attack, defense::format_list(defenses), cpu, nz, {}});
          specs.push_back(spec);
        }
      }
    }
  }
  std::printf("grid: %zu attacks × %zu stacks × %zu cpus × %zu noise = %zu "
              "cells, %d trial(s) each\n",
              m.attacks.size(), m.stacks.size(), m.cpus.size(),
              m.noise.size(), cells.size(), m.spec.trials);

  runner::Executor ex(m.jobs);
  const std::vector<runner::RunResult> results =
      runner::run_many(specs, ex, m.progress);
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].result = results[i];

  // Console view: the noise-0 aggregate table (the full detail goes to the
  // JSON trajectory and the markdown report).
  std::printf("\n%-7s %-44s %-7s %-7s\n", "attack", "defenses", "succ%",
              "err%");
  std::printf("%s\n", std::string(68, '-').c_str());
  for (std::size_t a = 0; a < m.attacks.size(); ++a) {
    for (std::size_t s = 0; s < m.stacks.size(); ++s) {
      std::size_t wins = 0;
      std::size_t total = 0;
      std::size_t bytes = 0;
      std::size_t errors = 0;
      for (std::size_t c = 0; c < m.cpus.size(); ++c) {
        for (std::size_t n = 0; n < m.noise.size(); ++n) {
          const Cell& cell =
              cells[((a * m.stacks.size() + s) * m.cpus.size() + c) *
                        m.noise.size() +
                    n];
          wins += cell.result.successes;
          total += cell.result.trials.size();
          bytes += cell.result.total_bytes;
          errors += cell.result.total_byte_errors;
        }
      }
      std::printf("%-7s %-44s %-7.0f %-7.1f\n", m.attacks[a].c_str(),
                  defense::format_list(defense::parse_list(m.stacks[s]))
                      .c_str(),
                  total ? 100.0 * wins / total : 0.0,
                  bytes ? 100.0 * errors / bytes : 0.0);
    }
  }

  const std::string body = render_json(m, cells);
  const std::string audit = validate_matrix_json(body, m);
  if (!audit.empty()) {
    std::fprintf(stderr, "defense_matrix: self-validation FAILED: %s\n",
                 audit.c_str());
    return 1;
  }
  std::printf("\n(self-validation passed: %zu cells audited)\n", cells.size());

  if (m.check) {
    // The bit-identity proof: the whole grid again, strictly sequential,
    // and the trajectories must match byte-for-byte.
    runner::Executor seq(1);
    const std::vector<runner::RunResult> again =
        runner::run_many(specs, seq, false);
    std::vector<Cell> cells1 = cells;
    for (std::size_t i = 0; i < cells1.size(); ++i) cells1[i].result = again[i];
    if (render_json(m, cells1) != body) {
      std::fprintf(stderr,
                   "defense_matrix: --check FAILED: --jobs %d trajectory "
                   "differs from --jobs 1\n",
                   m.jobs);
      return 1;
    }
    std::printf("(--check passed: --jobs %d == --jobs 1, byte-identical)\n",
                m.jobs);
  }

  if (!m.json.empty()) {
    if (!write_file(m.json, body + "\n")) {
      std::fprintf(stderr, "defense_matrix: cannot open %s for writing\n",
                   m.json.c_str());
      return 1;
    }
    std::printf("(matrix trajectory written to %s)\n", m.json.c_str());
  }

  if (!m.report.empty()) {
    std::string invocation = "bench/defense_matrix";
    for (int i = 1; i < argc; ++i) invocation += std::string(" ") + argv[i];
    if (!write_file(m.report, render_report(m, cells, invocation))) {
      std::fprintf(stderr, "defense_matrix: cannot open %s for writing\n",
                   m.report.c_str());
      return 1;
    }
    std::printf("(markdown report written to %s)\n", m.report.c_str());
  }

  if (!m.metrics_out.empty()) {
    obs::MetricsRegistry reg;
    for (const Cell& c : cells) {
      const std::string prefix =
          c.attack + "." + c.stack + "." + c.cpu + "." + c.noise + ".";
      reg.merge(runner::to_metrics(c.result, prefix));
    }
    bench::write_metrics(reg, m.metrics_out);
  }
  return 0;
}

// The flag table (stats/flags.h) and the RunSpec schema's command-line side
// (runner/spec_schema.h).
//
//   * parse() exits 2 on an unknown flag, a missing value, a malformed
//     integer or double, and a value flag given twice, naming the flag;
//     --help prints every row and exits 0.
//   * A repeatable row collects every occurrence; a comma-list row splits
//     its value; refused rows are all reported before the exit.
//   * Every schema row round-trips: command-line text -> RunSpec ->
//     run_request_line -> parse_request gives the same spec.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "runner/runner.h"
#include "runner/spec_schema.h"
#include "serve/protocol.h"
#include "stats/flags.h"

namespace whisper {
namespace {

using stats::Flags;

/// parse() over `args` as argv[1..].
void parse(Flags& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  flags.parse(static_cast<int>(argv.size()), argv.data());
}

struct Table {
  int jobs = 1;
  double budget = 0.0;
  std::string path;
  bool on = false;
  std::vector<std::string> list;
  std::string dir;
  runner::RunSpec spec;
  Flags flags{"prog"};

  Table() {
    flags.value("jobs", "N", "worker threads", jobs)
        .value("budget", "SECS", "a strict double", budget)
        .value("path", "PATH", "a string", path)
        .toggle("on", "a toggle", on)
        .list("attacks", "a comma list", list)
        .refuse("kpti", "was removed")
        .refuse("rounds", "is not a flag", /*takes_value=*/true)
        .positional("DIR", "the one bare argument", dir);
    runner::add_flag(flags, spec, "defenses");
  }
};

TEST(FlagsDeathTest, UnknownFlagExits2) {
  Table t;
  EXPECT_EXIT(parse(t.flags, {"--bogus"}), testing::ExitedWithCode(2),
              "prog: unknown flag --bogus");
}

TEST(FlagsDeathTest, MissingValueExits2) {
  Table t;
  EXPECT_EXIT(parse(t.flags, {"--on", "--jobs"}), testing::ExitedWithCode(2),
              "prog: --jobs needs a value");
}

TEST(FlagsDeathTest, MalformedIntegerExits2) {
  Table t;
  EXPECT_EXIT(parse(t.flags, {"--jobs", "foo"}), testing::ExitedWithCode(2),
              "prog: --jobs takes a decimal or 0x-hex integer, got 'foo'");
  EXPECT_EXIT(parse(t.flags, {"--jobs", "-1"}), testing::ExitedWithCode(2),
              "got '-1'");
}

TEST(FlagsDeathTest, MalformedDoubleExits2) {
  Table t;
  EXPECT_EXIT(parse(t.flags, {"--budget", "1abc"}),
              testing::ExitedWithCode(2),
              "prog: --budget takes a finite decimal number, got '1abc'");
  EXPECT_EXIT(parse(t.flags, {"--budget", "inf"}), testing::ExitedWithCode(2),
              "got 'inf'");
}

TEST(FlagsDeathTest, ValueFlagGivenTwiceExits2) {
  Table t;
  EXPECT_EXIT(parse(t.flags, {"--jobs", "1", "--jobs", "2"}),
              testing::ExitedWithCode(2),
              "prog: --jobs is given more than once");
}

TEST(FlagsDeathTest, SecondPositionalExits2) {
  Table t;
  EXPECT_EXIT(parse(t.flags, {"a", "b"}), testing::ExitedWithCode(2),
              "prog: unexpected argument 'b'");
}

TEST(FlagsDeathTest, ReportsEveryRefusedFlagThenExits2) {
  Table t;
  EXPECT_EXIT(parse(t.flags, {"--kpti", "--rounds", "2", "--on"}),
              testing::ExitedWithCode(2),
              "prog: --kpti was removed\nprog: --rounds is not a flag\n");
}

TEST(FlagsDeathTest, HelpExits0) {
  Table t;
  EXPECT_EXIT(parse(t.flags, {"--jobs", "2", "--help"}),
              testing::ExitedWithCode(0), "");
}

TEST(Flags, HelpListsEveryRow) {
  const std::string help = Table().flags.help();
  for (const char* line : {"\n  --jobs N ", "\n  --budget SECS ",
                           "\n  --path PATH ", "\n  --on ",
                           "\n  --attacks LIST ", "\n  --defense SPEC ",
                           "\n  DIR ", "\n  --help "})
    EXPECT_NE(help.find(line), std::string::npos) << line << "\n" << help;
  EXPECT_NE(help.find("(repeatable)"), std::string::npos);
  // Refused spellings are not flags: --help does not offer them.
  EXPECT_EQ(help.find("kpti"), std::string::npos);
  EXPECT_EQ(help.find("rounds"), std::string::npos);
}

TEST(Flags, SetsEveryRowKind) {
  Table t;
  parse(t.flags, {"out", "--jobs", "0x10", "--budget", "1.5", "--path", "p",
                  "--on", "--attacks", "cc,,md,", "--defense", "kpti",
                  "--defense", "window:depth=8"});
  EXPECT_EQ(t.jobs, 16);
  EXPECT_EQ(t.budget, 1.5);
  EXPECT_EQ(t.path, "p");
  EXPECT_TRUE(t.on);
  EXPECT_EQ(t.list, (std::vector<std::string>{"cc", "md"}));
  EXPECT_EQ(t.dir, "out");
  ASSERT_EQ(t.spec.defenses.size(), 2u);
  EXPECT_EQ(t.spec.defenses[1].name, "window");
  EXPECT_TRUE(t.flags.seen("jobs"));
  EXPECT_FALSE(Table().flags.seen("jobs"));
}

TEST(Flags, CommaListKeepsNonEmptyItems) {
  EXPECT_EQ(stats::comma_list(""), std::vector<std::string>{});
  EXPECT_EQ(stats::comma_list(",,"), std::vector<std::string>{});
  EXPECT_EQ(stats::comma_list("a"), std::vector<std::string>{"a"});
  EXPECT_EQ(stats::comma_list(",a,,b,"), (std::vector<std::string>{"a", "b"}));
}

/// Command-line values for each schema row; "" marks a toggle given bare.
const std::map<std::string, std::vector<std::string>>& cli_samples() {
  static const std::map<std::string, std::vector<std::string>> samples = {
      {"attack", {"cc", "kaslr"}},
      {"cpu", {"0", "4", "0x2"}},
      {"trials", {"0", "7", "0x10", "2147483647"}},
      {"seed", {"0", "18446744073709551615", "0x7ab1e2"}},
      {"noise", {"off", "quiet", "desktop", "noisy-server"}},
      {"noise_seed", {"0", "12345"}},
      {"defenses", {"kpti", "window:depth=8"}},
      {"docker", {""}},
      {"batches", {"3"}},
      {"payload_bytes", {"4", "18446744073709551615"}},
      {"payload_seed", {"0xfeed"}},
      {"adaptive", {""}},
      {"confidence_threshold", {"0.30000000000000004", "1e-3", "-0"}},
      {"batch_budget", {"24"}},
      {"reuse_machine", {""}},
      {"fast_forward", {""}},
      {"retries", {"2"}},
      {"trial_cycle_budget", {"5000000"}},
      {"trial_wall_budget", {"1.5", "5e-324"}},
      {"verify_reset", {""}},
      {"fault_plan", {"throw@1;stall@3", "a\"b\\c"}},
  };
  return samples;
}

/// One row's flag parsed from `text` into a default spec, through the wire
/// and back: the re-encoded line must be the line the CLI spec encodes to.
void expect_round_trip(const runner::SpecField& row, const std::string& flag,
                       const std::string& text) {
  runner::RunSpec spec;
  Flags flags("prog");
  runner::add_flag(flags, spec, row.name, flag);
  std::vector<std::string> args = {"--" + flag};
  if (row.arity != Flags::Arity::kToggle) args.push_back(text);
  parse(flags, args);

  serve::Request req;
  req.id = 1;
  req.spec = spec;
  const std::string line = serve::run_request_line(req);
  const serve::Request back = serve::parse_request(line);
  req.spec = back.spec;
  EXPECT_EQ(serve::run_request_line(req), line) << row.name << " " << text;
}

TEST(SpecSchema, EveryRowRoundTripsFromCommandLineText) {
  for (const runner::SpecField& row : runner::spec_fields()) {
    const auto it = cli_samples().find(row.name);
    ASSERT_NE(it, cli_samples().end()) << "no samples for row " << row.name;
    for (const std::string& text : it->second)
      expect_round_trip(row, row.flag, text);
  }
  expect_round_trip(*runner::find_spec_field("fast_forward"),
                    "no-fast-forward", "");
  EXPECT_EQ(cli_samples().size(), runner::spec_fields().size());
}

TEST(SpecSchema, CommandLineAndWireShareTheirLookups) {
  runner::RunSpec spec;
  runner::find_spec_field("cpu")->parse(spec, "2");
  EXPECT_EQ(spec.model, uarch::all_models()[2]);
  EXPECT_THROW(runner::find_spec_field("cpu")->parse(spec, "5"),
               std::invalid_argument);
  EXPECT_THROW(runner::find_spec_field("noise")->parse(spec, "hurricane"),
               std::invalid_argument);
  EXPECT_THROW(runner::find_spec_field("defenses")->parse(spec, "bogus:x"),
               std::invalid_argument);
  spec.noise.seed = 77;
  runner::find_spec_field("noise")->parse(spec, "desktop");
  EXPECT_EQ(spec.noise.name, "desktop");
  EXPECT_EQ(spec.noise.seed, 77u);
}

}  // namespace
}  // namespace whisper

// The composable defense API (src/defense): the parse/format/hash
// round-trip every surface shares (CLI string → DefenseSpec → JSON → serve
// wire → machine options), and — the part that guards the simulator's
// contracts — identity of every NEW defense under snapshot/reset
// (invariant 8) and fast-forward (invariant 10): a defense that perturbs
// either would silently corrupt the pooled trial path for the whole
// defense_matrix grid.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "os/machine.h"
#include "runner/json_writer.h"
#include "runner/machine_pool.h"
#include "runner/runner.h"
#include "serve/protocol.h"
#include "support/sim_pin.h"
#include "uarch/config.h"
#include "uarch/pmu.h"

namespace whisper {
namespace {

// ---------------------------------------------------------------------------
// Grammar round-trip: parse/format are exact inverses on canonical text.
// ---------------------------------------------------------------------------

TEST(DefenseSpecGrammar, ParseFormatRoundTripsCanonicalText) {
  for (const char* text :
       {"kpti", "window:depth=8", "flushclear:levels=2",
        "window:depth=4:depth=4"}) {
    EXPECT_EQ(defense::format(defense::parse(text)), text) << text;
  }
}

TEST(DefenseSpecGrammar, ParseListFormatListRoundTripsCombos) {
  for (const char* text :
       {"none", "kpti", "kpti+flare", "kpti+window:depth=8+retpoline"}) {
    EXPECT_EQ(defense::format_list(defense::parse_list(text)), text) << text;
  }
  EXPECT_TRUE(defense::parse_list("").empty());
  EXPECT_TRUE(defense::parse_list("none").empty());
}

TEST(DefenseSpecGrammar, ParseExtractsNameAndOrderedParams) {
  const defense::DefenseSpec d = defense::parse("window:depth=8:foo=bar");
  EXPECT_EQ(d.name, "window");
  ASSERT_EQ(d.params.size(), 2u);
  EXPECT_EQ(d.params[0].first, "depth");
  EXPECT_EQ(d.params[0].second, "8");
  EXPECT_EQ(*d.param("foo"), "bar");
  EXPECT_EQ(d.param("absent"), nullptr);
}

TEST(DefenseSpecGrammar, RejectsMalformedText) {
  for (const char* bad : {"", ":", "KPTI", "kpti:", "kpti:depth",
                          "kpti:=8", "kpti:depth=", "a b", "kpti:k=v,w=x"}) {
    EXPECT_THROW((void)defense::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(DefenseSpecGrammar, HashFollowsTheCanonicalListString) {
  const auto a = defense::parse_list("kpti+window:depth=8");
  const auto b = defense::parse_list("kpti+window:depth=8");
  const auto c = defense::parse_list("kpti+window:depth=4");
  EXPECT_EQ(defense::hash_list(a), defense::hash_list(b));
  EXPECT_NE(defense::hash_list(a), defense::hash_list(c));
  EXPECT_NE(defense::hash_list(a), defense::hash_list({}));
}

// ---------------------------------------------------------------------------
// Registry contract: the seven shipped defenses, the unknown-name message.
// ---------------------------------------------------------------------------

TEST(DefenseRegistry, ShipsTheSystematizationAxes) {
  const std::vector<std::string> names = defense::defense_names();
  const std::vector<std::string> want = {
      "kpti", "flare", "fgkaslr", "lfence", "window", "retpoline",
      "flushclear"};
  EXPECT_EQ(names, want);
  for (const std::string& n : names)
    EXPECT_NE(defense::find_defense(n), nullptr) << n;
  EXPECT_EQ(defense::find_defense("nope"), nullptr);
}

TEST(DefenseRegistry, ValidateListsRegisteredNamesOnUnknown) {
  try {
    defense::validate({defense::parse("ktpi")});
    FAIL() << "accepted unknown defense";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown defense 'ktpi'"), std::string::npos) << what;
    EXPECT_NE(what.find("registered: kpti, flare, fgkaslr, lfence, window, "
                        "retpoline, flushclear"),
              std::string::npos)
        << what;
  }
}

TEST(DefenseRegistry, ValidateRejectsDuplicatesAndBadParams) {
  EXPECT_THROW(defense::validate({defense::parse("kpti"),
                                  defense::parse("kpti")}),
               std::invalid_argument);
  EXPECT_THROW(defense::validate({defense::parse("window:depth=0")}),
               std::invalid_argument);
  EXPECT_THROW(defense::validate({defense::parse("window:depth=abc")}),
               std::invalid_argument);
  try {  // overflow fails with the same message, not a wrapped depth
    defense::validate({defense::parse("window:depth=99999999999999999999")});
    ADD_FAILURE() << "overflowing depth was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "parameter 'depth' must be an integer in [1, 1048576], "
                  "got '99999999999999999999'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(defense::validate({defense::parse("window:width=8")}),
               std::invalid_argument);
  EXPECT_THROW(defense::validate({defense::parse("flushclear:levels=4")}),
               std::invalid_argument);
  EXPECT_NO_THROW(defense::validate({defense::parse("flushclear:levels=3"),
                                     defense::parse("window")}));
}

// ---------------------------------------------------------------------------
// apply(): each hook lands on the exact machine-option field it claims.
// ---------------------------------------------------------------------------

TEST(DefenseApply, KernelDefensesRewriteKernelOptionsOnly) {
  os::MachineOptions mo;
  defense::apply(defense::parse_list("kpti+flare+fgkaslr"), mo);
  EXPECT_TRUE(mo.kernel.kpti);
  EXPECT_TRUE(mo.kernel.flare);
  EXPECT_TRUE(mo.kernel.fgkaslr);
  EXPECT_FALSE(mo.config.has_value());  // no uarch knob touched
}

TEST(DefenseApply, UarchDefensesMaterializeTheConfigOverride) {
  os::MachineOptions mo;
  defense::apply(defense::parse_list("lfence+window:depth=4+retpoline+"
                                     "flushclear:levels=2"),
                 mo);
  ASSERT_TRUE(mo.config.has_value());
  EXPECT_TRUE(mo.config->lfence_after_branch);
  EXPECT_EQ(mo.config->speculation_window_limit, 4);
  EXPECT_FALSE(mo.config->rsb_speculates);
  EXPECT_TRUE(mo.config->flush_on_clear);
  EXPECT_EQ(mo.config->flush_on_clear_levels, 2);
  EXPECT_FALSE(mo.kernel.kpti);
}

TEST(DefenseApply, ParamDefaultsComeFromTheRegistry) {
  os::MachineOptions mo;
  defense::apply(defense::parse_list("window+flushclear"), mo);
  EXPECT_EQ(mo.config->speculation_window_limit, 8);
  EXPECT_EQ(mo.config->flush_on_clear_levels, 1);
}

TEST(DefenseApply, EmptyStackLeavesOptionsUntouched) {
  os::MachineOptions mo;
  defense::apply({}, mo);
  EXPECT_FALSE(mo.config.has_value());
  EXPECT_FALSE(mo.kernel.kpti);
}

// ---------------------------------------------------------------------------
// Runner integration: the label fix, the pool key, validation and the JSON
// trajectory emission.
// ---------------------------------------------------------------------------

TEST(RunnerDefenses, LabelDerivesFromTheFullDefenseList) {
  // The old hand-rolled label dropped +FGKASLR; the derived one cannot.
  runner::RunSpec spec;
  spec.attack = "kaslr";
  spec.defenses = defense::parse_list("kpti+fgkaslr+window:depth=4");
  const std::string label = spec.label();
  EXPECT_NE(label.find("+KPTI"), std::string::npos) << label;
  EXPECT_NE(label.find("+FGKASLR"), std::string::npos) << label;
  EXPECT_NE(label.find("+WINDOW:DEPTH=4"), std::string::npos) << label;
}

TEST(RunnerDefenses, MachineKeySeparatesDefenseStacks) {
  runner::RunSpec none;
  runner::RunSpec kpti;
  kpti.defenses = defense::parse_list("kpti");
  runner::RunSpec window4;
  window4.defenses = defense::parse_list("window:depth=4");
  runner::RunSpec window8;
  window8.defenses = defense::parse_list("window:depth=8");
  EXPECT_NE(runner::machine_key(none), runner::machine_key(kpti));
  EXPECT_NE(runner::machine_key(window4), runner::machine_key(window8));
}

TEST(RunnerDefenses, ValidateRejectsUnknownAndDuplicateDefenses) {
  runner::RunSpec spec;
  spec.attack = "cc";
  spec.defenses = {defense::parse("ktpi")};
  EXPECT_THROW(runner::validate(spec), std::invalid_argument);
  spec.defenses = defense::parse_list("kpti");
  spec.defenses.push_back(defense::parse("kpti"));
  EXPECT_THROW(runner::validate(spec), std::invalid_argument);
}

TEST(RunnerDefenses, TrajectoryJsonEmitsTheDefensesArray) {
  runner::RunSpec spec;
  spec.attack = "cc";
  spec.trials = 1;
  spec.payload_bytes = 1;
  spec.batches = 1;
  spec.defenses = defense::parse_list("kpti+window:depth=8");
  const runner::RunResult r = runner::run(spec, /*jobs=*/1);
  const std::string json = runner::to_json(r);
  EXPECT_NE(json.find("\"defenses\":[\"kpti\",\"window:depth=8\"]"),
            std::string::npos)
      << json;
  // The three hand-rolled spec keys are gone for good (the names may still
  // appear as *values* inside the defenses array, hence the ':' probes).
  EXPECT_EQ(json.find("\"kpti\":"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"flare\":"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"fgkaslr\":"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Wire round-trip: CLI string → DefenseSpec → JSON array → parse_request →
// RunSpec, byte-identical both directions through format_list.
// ---------------------------------------------------------------------------

TEST(ServeDefenses, RunRequestDefensesArrayLandsOnTheSpec) {
  const serve::Request req = serve::parse_request(
      R"({"id":4,"verb":"run","attack":"cc","trials":1,)"
      R"("defenses":["kpti","window:depth=4"]})");
  EXPECT_EQ(defense::format_list(req.spec.defenses), "kpti+window:depth=4");
}

TEST(ServeDefenses, WireAndCliSpellingsAreByteIdenticalBothWays) {
  // CLI text → specs → wire JSON → parsed request → canonical text.
  const std::string cli = "retpoline+flushclear:levels=3";
  const std::vector<defense::DefenseSpec> specs = defense::parse_list(cli);
  std::string wire = R"({"id":1,"verb":"run","attack":"rsb","defenses":[)";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i) wire += ',';
    wire += '"' + defense::format(specs[i]) + '"';
  }
  wire += "]}";
  const serve::Request req = serve::parse_request(wire);
  EXPECT_EQ(req.spec.defenses, specs);
  EXPECT_EQ(defense::format_list(req.spec.defenses), cli);
}

TEST(ServeDefenses, MalformedDefenseStringsAreProtocolErrors) {
  EXPECT_THROW((void)serve::parse_request(
                   R"({"id":1,"verb":"run","defenses":["KPTI"]})"),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::parse_request(
                   R"({"id":1,"verb":"run","defenses":"kpti"})"),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::parse_request(
                   R"({"id":1,"verb":"run","defenses":[7]})"),
               serve::ProtocolError);
}

// ---------------------------------------------------------------------------
// Identity: every new defense must leave invariants 8 (reset ≡ fresh) and
// 10 (fast-forward ≡ structural) intact. Same idiom as
// tests/test_machine_reset.cpp, parameterized over the defense stacks.
// ---------------------------------------------------------------------------

void expect_identical(const core::AttackResult& a, const core::AttackResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.byte_errors, b.byte_errors) << what;
  EXPECT_EQ(a.probes, b.probes) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.confidence, b.confidence) << what;
  EXPECT_EQ(a.gave_up, b.gave_up) << what;
  EXPECT_EQ(a.tote.buckets(), b.tote.buckets()) << what;
  EXPECT_EQ(a.found_slot, b.found_slot) << what;
  EXPECT_EQ(a.found_base, b.found_base) << what;
  EXPECT_EQ(a.true_base, b.true_base) << what;
  EXPECT_EQ(a.slot_scores, b.slot_scores) << what;
}

struct AttackRun {
  core::AttackResult result;
  uarch::PmuSnapshot pmu;
};

AttackRun run_attack(os::Machine& m, const core::AttackInfo& info) {
  core::AttackOptions opt;
  opt.batches = 1;  // smallest possible cell; identity, not accuracy
  const std::vector<std::uint8_t> payload = {0xa5, 0x3c};
  const uarch::PmuSnapshot before = m.core().pmu().snapshot();
  AttackRun out;
  out.result = core::make_attack(info.name, m, opt)
                   ->run(info.channel ? std::span<const std::uint8_t>(payload)
                                      : std::span<const std::uint8_t>());
  out.pmu = uarch::pmu_delta(before, m.core().pmu().snapshot());
  return out;
}

/// The four defenses the legacy bools could not express — the ones whose
/// hooks live inside the core and therefore carry the invariant risk.
const char* kNewDefenseStacks[] = {"lfence", "window:depth=6", "retpoline",
                                   "flushclear:levels=3",
                                   "lfence+window:depth=6+retpoline+"
                                   "flushclear:levels=2"};

class DefenseIdentityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DefenseIdentityTest, ResetMachineMatchesFreshForEveryAttack) {
  constexpr std::uint64_t kSeed = 0x777ull;
  os::MachineOptions opts;
  opts.model = uarch::CpuModel::KabyLakeI7_7700;
  defense::apply(defense::parse_list(GetParam()), opts);

  os::MachineOptions dirty_opts = opts;
  dirty_opts.seed = 0x31337ull;
  os::Machine reused(dirty_opts);
  reused.snapshot();

  for (const core::AttackInfo& info : core::attack_registry()) {
    const std::string what =
        info.name + std::string(" under ") + GetParam() + " [reset]";

    opts.seed = kSeed;
    os::Machine fresh(opts);
    const AttackRun a = run_attack(fresh, info);

    reused.reset(0x31337ull);  // dirty pass under the other seed
    (void)run_attack(reused, info);
    reused.reset(kSeed);
    const AttackRun b = run_attack(reused, info);

    expect_identical(a.result, b.result, what);
    EXPECT_EQ(a.pmu, b.pmu) << "PMU deltas diverged: " << what;
  }
}

TEST_P(DefenseIdentityTest, FastForwardMatchesStructuralForEveryAttack) {
  os::MachineOptions opts;
  opts.model = uarch::CpuModel::KabyLakeI7_7700;
  opts.seed = 0x777ull;
  defense::apply(defense::parse_list(GetParam()), opts);

  for (const core::AttackInfo& info : core::attack_registry()) {
    const std::string what =
        info.name + std::string(" under ") + GetParam() + " [fast-forward]";

    os::Machine structural(opts);
    structural.core().set_fast_forward(false);
    const AttackRun a = run_attack(structural, info);

    os::Machine fast(opts);
    ASSERT_TRUE(fast.core().fast_forward());
    const AttackRun b = run_attack(fast, info);

    expect_identical(a.result, b.result, what);
    EXPECT_EQ(a.pmu, b.pmu) << "PMU deltas diverged: " << what;
    EXPECT_TRUE(test_support::matches_pin(
        test_support::pin_key(info.name),
        test_support::PinText().attack(a.result).pmu("pmu", a.pmu).str()));
  }
}

std::string stack_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string out;
  for (const char* p = info.param; *p; ++p)
    out += (std::isalnum(static_cast<unsigned char>(*p))) ? *p : '_';
  return out;
}

INSTANTIATE_TEST_SUITE_P(NewDefenses, DefenseIdentityTest,
                         ::testing::ValuesIn(kNewDefenseStacks), stack_name);

// ---------------------------------------------------------------------------
// The defenses defend: each new mechanism measurably perturbs the attack it
// targets (the matrix's whole point). Deterministic — same seeds, so the
// comparison is exact, not statistical.
// ---------------------------------------------------------------------------

runner::TrialResult one_trial(const std::string& attack,
                              const std::string& stack) {
  runner::RunSpec spec;
  spec.model = uarch::CpuModel::KabyLakeI7_7700;
  spec.attack = attack;
  spec.defenses = defense::parse_list(stack);
  spec.payload_bytes = 2;
  spec.batches = 1;
  return runner::run_trial(spec, runner::trial_seed(1, 0));
}

TEST(DefenseEffect, RetpolineKillsTheRsbChannel) {
  const runner::TrialResult open = one_trial("rsb", "none");
  const runner::TrialResult hard = one_trial("rsb", "retpoline");
  EXPECT_TRUE(open.success);
  // No RSB speculation → the transient gadget never runs → the ToTE deltas
  // carry no signal and decoding degrades to errors.
  EXPECT_GT(hard.byte_errors, open.byte_errors);
}

TEST(DefenseEffect, LfenceKillsTheConditionalBranchWindow) {
  // v1 leaks through the window behind a mispredicted Jcc — exactly the
  // window lfence serializes. The fault/assist channels don't use it.
  const runner::TrialResult open = one_trial("v1", "none");
  const runner::TrialResult hard = one_trial("v1", "lfence");
  EXPECT_TRUE(open.success);
  EXPECT_GT(hard.byte_errors, open.byte_errors);
}

TEST(DefenseEffect, WindowClampNarrowsTheJccSpeculationWindow) {
  const runner::TrialResult open = one_trial("v1", "none");
  const runner::TrialResult hard = one_trial("v1", "window:depth=4");
  EXPECT_TRUE(open.success);
  EXPECT_GT(hard.byte_errors, open.byte_errors);
}

TEST(DefenseEffect, FlushOnClearPerturbsTheMachineClearChannel) {
  // md's transient window ends in a machine clear; flushing the hierarchy
  // on every clear must change its timing even when decoding still limps.
  const runner::TrialResult open = one_trial("md", "none");
  const runner::TrialResult hard = one_trial("md", "flushclear:levels=3");
  EXPECT_NE(open.cycles, hard.cycles);
}

TEST(DefenseEffect, DefensesAreSelective) {
  // The systematization's other half: a defense that doesn't target the
  // channel leaves it BIT-identical — retpoline doesn't touch v1's Jcc
  // window, lfence doesn't touch rsb's return window.
  const runner::TrialResult v1_open = one_trial("v1", "none");
  const runner::TrialResult v1_ret = one_trial("v1", "retpoline");
  EXPECT_EQ(v1_open.cycles, v1_ret.cycles);
  EXPECT_EQ(v1_open.byte_errors, v1_ret.byte_errors);
  const runner::TrialResult rsb_open = one_trial("rsb", "none");
  const runner::TrialResult rsb_lf = one_trial("rsb", "lfence");
  EXPECT_EQ(rsb_open.cycles, rsb_lf.cycles);
  EXPECT_EQ(rsb_open.byte_errors, rsb_lf.byte_errors);
}

}  // namespace
}  // namespace whisper

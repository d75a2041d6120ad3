// Properties of the run-request codec and of the request parser.
//
//   * The codec is one field table driving both directions, so every spec
//     the wire can carry round-trips: run_request_json -> parse_request ->
//     run_request_json gives the same bytes (64-bit seeds and doubles such
//     as 0.1+0.2 included). A golden literal pins field order and number
//     spelling.
//   * A trajectory's "spec" object is the same table's spelling: wrapped
//     with an id and the run verb it parses as a run request, and
//     re-encoding that request's spec gives the same bytes.
//   * The noise row carries a preset name only, so a profile that is not
//     its preset at every intensity is refused, not sent.
//   * decode_trial() inverts response_trial(), and folding decoded lines
//     with runner::fold() rebuilds a local run's done line.
//   * parse_request() answers ANY line with a Request or a ProtocolError:
//     a seeded fuzz pass over random bytes, truncations, deep nesting,
//     hostile numbers, bad escapes and lone surrogates.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "client/wire.h"
#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "noise/noise.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "serve/protocol.h"
#include "stats/rng.h"
#include "uarch/config.h"

namespace whisper {
namespace {

// ---------------------------------------------------------------------------
// Codec.

runner::RunSpec golden_spec() {
  runner::RunSpec spec;
  spec.model = uarch::all_models()[2];
  spec.attack = "kaslr";
  spec.trials = 64;
  spec.base_seed = 9007199254740993ULL;  // 2^53 + 1
  spec.noise = *noise::NoiseProfile::by_name("quiet");
  spec.noise.seed = 18446744073709551615ULL;
  spec.defenses = {defense::parse("kpti"), defense::parse("window:depth=8")};
  spec.batches = 3;
  spec.payload_bytes = 4;
  spec.payload_seed = 0xfeedULL;
  spec.adaptive = true;
  spec.confidence_threshold = 0.1 + 0.2;
  spec.batch_budget = 24;
  spec.reuse_machine = false;
  spec.retries = 2;
  spec.trial_cycle_budget = 5000000;
  spec.trial_wall_budget = 1.5;
  spec.verify_reset = true;
  spec.fault_plan = "throw@1;stall@3";
  return spec;
}

TEST(WireCodec, RunRequestGoldenBytes) {
  // Captured from the hand-spelled encoder the field table replaced: the
  // table must keep its field order and number spelling exactly.
  EXPECT_EQ(
      client::run_request_json(7, golden_spec(), 12, 4),
      R"({"id":7,"verb":"run","attack":"kaslr","cpu":2,"trials":4,)"
      R"("trial_first":12,"seed":9007199254740993,"noise":"quiet",)"
      R"("noise_seed":18446744073709551615,)"
      R"("defenses":["kpti","window:depth=8"],)"
      R"("docker":false,"batches":3,)"
      R"("payload_bytes":4,"payload_seed":65261,"adaptive":true,)"
      R"("confidence_threshold":0.30000000000000004,"batch_budget":24,)"
      R"("reuse_machine":false,"fast_forward":true,"retries":2,)"
      R"("trial_cycle_budget":5000000,"trial_wall_budget":1.5,)"
      R"("verify_reset":true,"fault_plan":"throw@1;stall@3"})");
}

/// A finite double from random bits: denormals, huge and negative values.
double random_double(stats::Xoshiro256& rng) {
  static const double kFixed[] = {0.1 + 0.2, 5e-324, 2.2250738585072014e-308,
                                  1.7976931348623157e308, -0.0, 0.0, 0.5};
  if (rng.next_bool(0.3)) return kFixed[rng.next_below(std::size(kFixed))];
  for (;;) {
    const double d = std::bit_cast<double>(rng.next());
    if (std::isfinite(d)) return d;
  }
}

std::uint64_t random_u64(stats::Xoshiro256& rng) {
  static const std::uint64_t kFixed[] = {0, 1, (std::uint64_t{1} << 53) + 1,
                                         18446744073709551615ULL};
  return rng.next_bool(0.3) ? kFixed[rng.next_below(std::size(kFixed))]
                            : rng.next() >> rng.next_below(64);
}

int random_int(stats::Xoshiro256& rng) {
  return static_cast<int>(rng.next_below(std::uint64_t{1} << 31));
}

template <typename T>
const T& pick(stats::Xoshiro256& rng, const std::vector<T>& from) {
  return from[rng.next_below(from.size())];
}

runner::RunSpec random_spec(stats::Xoshiro256& rng) {
  static const std::vector<std::string> kAttacks = core::attack_names();
  static const std::vector<uarch::CpuModel> kModels = uarch::all_models();
  static const std::vector<std::string> kPlans = {
      "", "throw@1;corrupt@5", "stall@2", "a\"b\\c\t\x01\r\xc3\xa9"};
  runner::RunSpec spec;
  spec.attack = pick(rng, kAttacks);
  spec.model = pick(rng, kModels);
  spec.trials = random_int(rng);
  spec.base_seed = random_u64(rng);
  spec.noise = *noise::NoiseProfile::by_name(
      pick(rng, noise::NoiseProfile::preset_names()));
  spec.noise.seed = random_u64(rng);
  for (const defense::DefenseInfo& d : defense::registry()) {
    if (!rng.next_bool(0.3)) continue;
    defense::DefenseSpec ds{.name = d.name, .params = {}};
    for (const defense::DefenseParamInfo& p : d.params)
      if (rng.next_bool(0.5))
        ds.params.emplace_back(p.name, std::to_string(rng.next_below(64)));
    spec.defenses.push_back(ds);
  }
  spec.docker = rng.next_bool(0.5);
  spec.batches = random_int(rng);
  spec.payload_bytes = random_u64(rng);
  spec.payload_seed = random_u64(rng);
  spec.adaptive = rng.next_bool(0.5);
  spec.confidence_threshold = random_double(rng);
  spec.batch_budget = random_int(rng);
  spec.reuse_machine = rng.next_bool(0.5);
  spec.fast_forward = rng.next_bool(0.5);
  spec.retries = random_int(rng);
  spec.trial_cycle_budget = random_u64(rng);
  spec.trial_wall_budget = random_double(rng);
  spec.verify_reset = rng.next_bool(0.5);
  spec.fault_plan = pick(rng, kPlans);
  return spec;
}

TEST(WireCodec, EveryRepresentableSpecRoundTripsByteForByte) {
  stats::Xoshiro256 rng(0xc0dec);
  for (int i = 0; i < 2000; ++i) {
    const runner::RunSpec spec = random_spec(rng);
    const std::uint64_t id = 1 + (rng.next() >> 1);
    const std::uint64_t first = std::min(
        random_u64(rng), std::numeric_limits<std::uint64_t>::max() -
                             static_cast<std::uint64_t>(spec.trials));
    const std::string line =
        client::run_request_json(id, spec, first, spec.trials);
    const serve::Request req = serve::parse_request(line);
    ASSERT_EQ(client::run_request_json(req.id, req.spec, req.trial_first,
                                       req.spec.trials),
              line);
    // Spot-check the fields a double-typed reader would have rounded.
    ASSERT_EQ(req.spec.base_seed, spec.base_seed) << line;
    ASSERT_EQ(req.spec.noise.seed, spec.noise.seed) << line;
    ASSERT_EQ(req.trial_first, first) << line;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(req.spec.confidence_threshold),
              std::bit_cast<std::uint64_t>(spec.confidence_threshold))
        << line;
  }
}

/// The bytes of to_json()'s "spec" object for a run of `spec`: the
/// document's first member, ending where "jobs" begins.
std::string trajectory_spec(const runner::RunSpec& spec) {
  runner::RunResult r;
  r.spec = spec;
  const std::string json = runner::to_json(r);
  const std::string head = R"({"spec":)";
  EXPECT_EQ(json.compare(0, head.size(), head), 0) << json;
  return json.substr(head.size(), json.find(R"(,"jobs":)") - head.size());
}

TEST(WireCodec, TrajectorySpecIsARunRequestBody) {
  stats::Xoshiro256 rng(0x5bec);
  for (int i = 0; i < 500; ++i) {
    const std::string spec = trajectory_spec(random_spec(rng));
    ASSERT_EQ(spec.front(), '{');
    const serve::Request req =
        serve::parse_request(R"({"id":1,"verb":"run",)" + spec.substr(1));
    ASSERT_EQ(trajectory_spec(req.spec), spec);
  }
}

TEST(WireCodec, RefusesANoiseProfileThatIsNotItsPreset) {
  runner::RunSpec spec;
  spec.noise = noise::NoiseProfile::desktop().scaled(0.25);
  ASSERT_EQ(spec.noise.name, "desktop");
  EXPECT_THROW((void)client::run_request_json(1, spec, 0, 1),
               std::invalid_argument);
  spec.noise = noise::NoiseProfile::desktop();
  spec.noise.sources.pop_back();
  EXPECT_THROW((void)client::run_request_json(1, spec, 0, 1),
               std::invalid_argument);
  spec.noise = noise::NoiseProfile::desktop().scaled(1.0);
  EXPECT_NO_THROW((void)client::run_request_json(1, spec, 0, 1));
}

TEST(WireCodec, DecodedTrialsFoldIntoTheLocalDoneLine) {
  runner::RunSpec spec;
  spec.attack = "cc";
  spec.trials = 4;
  spec.batches = 2;
  spec.payload_bytes = 2;
  spec.fault_plan = "throw@1";
  spec.retries = 1;
  const runner::RunResult local = runner::run(spec, 1);

  runner::RunResult merged;
  merged.spec = spec;
  for (const std::string& line : client::canonical_trial_lines(local)) {
    runner::ScheduledTrial t = serve::decode_trial(line);
    // The inverse holds for every field but the ToTE histogram, which
    // crosses the wire only as its total.
    const std::string again = serve::response_trial(0, merged.trials.size(), t);
    EXPECT_EQ(again.substr(0, again.find("\"tote_total\"")),
              line.substr(0, line.find("\"tote_total\"")));
    runner::fold(merged, std::move(t));
  }
  EXPECT_EQ(client::canonical_done_line(merged),
            client::canonical_done_line(local));
  EXPECT_EQ(merged.retried, 1u);
}

TEST(WireCodec, DecodeTrialRefusesOtherLines) {
  EXPECT_THROW((void)serve::decode_trial(serve::response_pong(1, 1)),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::decode_trial("{\"type\":\"trial\""),
               serve::ProtocolError);
}

// ---------------------------------------------------------------------------
// Parser fuzz.

/// The whole contract under fuzz: a Request or a ProtocolError, nothing
/// else escapes (no other exception, no crash, no sanitizer report).
void expect_request_or_protocol_error(const std::string& line) {
  try {
    (void)serve::parse_request(line);
  } catch (const serve::ProtocolError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected " << e.what() << " for "
                  << line.substr(0, 120);
  } catch (...) {
    ADD_FAILURE() << "non-standard exception for " << line.substr(0, 120);
  }
}

TEST(ProtocolFuzz, AnyLineYieldsARequestOrAProtocolError) {
  stats::Xoshiro256 rng(0xf022);
  std::vector<std::string> valid = {
      R"({"id":2,"verb":"ping"})", R"({"id":3,"verb":"list"})",
      R"({"id":4,"verb":"metrics"})", R"({"id":5,"verb":"shutdown"})",
      client::run_request_json(1, golden_spec(), 12, 4)};

  // Every truncation of each verb's valid request, and byte mutations.
  for (const std::string& line : valid) {
    for (std::size_t n = 0; n <= line.size(); ++n)
      expect_request_or_protocol_error(line.substr(0, n));
    for (int i = 0; i < 2000; ++i) {
      std::string m = line;
      for (int k = 0; k < 3; ++k)
        m[rng.next_below(m.size())] = static_cast<char>(rng.next());
      expect_request_or_protocol_error(m);
    }
  }

  // Random bytes, biased toward JSON punctuation so some get deep.
  static const char kAlphabet[] = "{}[]\":,\\u0123456789-+.eEtrufalsn \t";
  for (int i = 0; i < 30000; ++i) {
    std::string s(rng.next_below(96), '\0');
    for (char& c : s)
      c = rng.next_bool(0.5) ? kAlphabet[rng.next_below(sizeof kAlphabet - 1)]
                             : static_cast<char>(rng.next());
    expect_request_or_protocol_error(s);
  }

  // Deep nesting, at and far past the cap.
  for (const std::size_t depth : {255, 256, 257, 1000, 65000}) {
    expect_request_or_protocol_error(std::string(depth, '['));
    std::string obj;
    for (std::size_t i = 0; i < depth; ++i) obj += R"({"a":)";
    expect_request_or_protocol_error(obj + "1" + std::string(depth, '}'));
  }

  // Huge, negative and fractional numbers in every numeric member.
  static const char* kNumbers[] = {
      "-1", "1.5", "1e400", "-1e400", "1e-400", "1e30", "1e10", "-0",
      "0.0", "1E2", "18446744073709551615", "18446744073709551616",
      "99999999999999999999999999", "-9223372036854775809", "4.9e-324"};
  static const char* kNumericFields[] = {
      "id", "cpu", "trials", "trial_first", "seed", "noise_seed", "batches",
      "payload_bytes", "payload_seed", "confidence_threshold",
      "batch_budget", "retries", "trial_cycle_budget", "trial_wall_budget"};
  for (const char* field : kNumericFields)
    for (const char* number : kNumbers)
      expect_request_or_protocol_error(
          std::string(R"({"id":1,"verb":"run",")") + field + "\":" + number +
          "}");

  // Bad escapes and lone surrogates, as values and as keys.
  static const char* kStrings[] = {
      R"("\x")", R"("\u12")", R"("\ud800")", R"("\udc00")",
      R"("\ud800A")", R"("\ud800\udc00")", "\"\x01\"", R"("\)"};
  for (const char* str : kStrings) {
    expect_request_or_protocol_error(
        std::string(R"({"id":1,"verb":"run","attack":)") + str + "}");
    expect_request_or_protocol_error(std::string("{") + str + ":1}");
  }
}

}  // namespace
}  // namespace whisper

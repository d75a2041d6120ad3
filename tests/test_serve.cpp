// Tests for the whisper_serve stack: protocol goldens, the loopback
// round-trip for every registered attack, the concurrent machine pool, the
// fair scheduler, and the daemon's wire-level determinism contract
// (invariant 11, docs/ARCHITECTURE.md):
//
//   the response stream of a run request is a pure function of its request
//   line — byte-identical whatever the server's worker count and however
//   clients interleave.
//
// The strongest form checked here: serving a spec produces *exactly* the
// lines you would assemble by hand from runner::run()'s results — the wire
// and the library are the same computation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "runner/machine_pool.h"
#include "runner/runner.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/transport_loopback.h"
#include "stats/json.h"

namespace whisper::serve {
namespace {

// ---------------------------------------------------------------------------
// Harness: a loopback server plus a transcript helper.

/// Send `requests` on one connection, half-close, and collect every
/// response line until the server delivers EOF (which it does only after
/// every queued response has been written — drain-then-close).
std::vector<std::string> transact(LoopbackTransport& transport,
                                  const std::vector<std::string>& requests) {
  auto client = transport.connect();
  for (const auto& r : requests) client->send(r);
  client->close_send();
  std::vector<std::string> lines;
  std::string line;
  while (client->recv(line)) lines.push_back(line);
  return lines;
}

/// Group response lines by their "id" member, preserving per-id order.
std::map<std::uint64_t, std::vector<std::string>> by_id(
    const std::vector<std::string>& lines) {
  std::map<std::uint64_t, std::vector<std::string>> out;
  for (const auto& line : lines) {
    const stats::JsonValue doc = stats::json_parse(line);
    const stats::JsonValue* id = doc.get("id");
    EXPECT_NE(id, nullptr) << line;
    out[static_cast<std::uint64_t>(id->number)].push_back(line);
  }
  return out;
}

/// A run request cheap enough to appear dozens of times in one test.
std::string run_request(std::uint64_t id, const std::string& attack,
                        std::uint64_t seed, int trials,
                        const std::string& extra = "") {
  return "{\"id\":" + std::to_string(id) + ",\"verb\":\"run\",\"attack\":\"" +
         attack + "\",\"seed\":" + std::to_string(seed) +
         ",\"trials\":" + std::to_string(trials) +
         ",\"batches\":2,\"payload_bytes\":2" + extra + "}";
}

// ---------------------------------------------------------------------------
// JSON parser.

TEST(ServeJson, ParsesScalarsObjectsAndArrays) {
  const stats::JsonValue v = stats::json_parse(
      R"({"a":1,"b":-2.5e2,"c":"x\ny","d":[true,false,null],"e":{"f":0}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get("a")->number, 1.0);
  EXPECT_EQ(v.get("b")->number, -250.0);
  EXPECT_EQ(v.get("c")->string, "x\ny");
  ASSERT_TRUE(v.get("d")->is_array());
  ASSERT_EQ(v.get("d")->array.size(), 3u);
  EXPECT_TRUE(v.get("d")->array[0].boolean);
  EXPECT_TRUE(v.get("d")->array[2].is_null());
  EXPECT_EQ(v.get("e")->get("f")->number, 0.0);
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(ServeJson, DecodesUnicodeEscapes) {
  EXPECT_EQ(stats::json_parse(R"("Aé")").string, "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(stats::json_parse(R"("😀")").string, "\xf0\x9f\x98\x80");
  EXPECT_THROW((void)stats::json_parse(R"("\ud83d")"), stats::JsonError);
}

TEST(ServeJson, RejectsMalformedDocuments) {
  for (const char* bad :
       {"{nope", "{\"a\":}", "[1,]", "{\"a\":1} trailing", "01", "1.",
        "+1", "\"unterminated", "{\"a\" 1}", "tru", ""}) {
    EXPECT_THROW((void)stats::json_parse(bad), stats::JsonError) << bad;
  }
}

TEST(ServeJson, DuplicateKeysKeepTheLastValue) {
  EXPECT_EQ(stats::json_parse(R"({"a":1,"a":2})").get("a")->number, 2.0);
}

// ---------------------------------------------------------------------------
// Request schema.

TEST(ServeProtocol, ParsesARunRequestOntoTheSpec) {
  const Request req = parse_request(
      R"({"id":9,"verb":"run","attack":"md","cpu":2,"trials":5,"seed":77,)"
      R"("noise":"quiet","defenses":["kpti"],"fault_plan":"throw@1",)"
      R"("retries":2})");
  EXPECT_EQ(req.id, 9u);
  EXPECT_EQ(req.verb, "run");
  EXPECT_EQ(req.spec.attack, "md");
  EXPECT_EQ(req.spec.model, uarch::CpuModel::CometLakeI9_10980XE);
  EXPECT_EQ(req.spec.trials, 5);
  EXPECT_EQ(req.spec.base_seed, 77u);
  EXPECT_EQ(req.spec.noise.name, "quiet");
  EXPECT_EQ(defense::format_list(req.spec.defenses), "kpti");
  EXPECT_EQ(req.spec.fault_plan, "throw@1");
  EXPECT_EQ(req.spec.retries, 2);
}

TEST(ServeProtocol, RejectsSchemaViolations) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"verb":"ping"})", "missing numeric 'id'"},
      {R"({"id":0,"verb":"ping"})", "must be positive"},
      {R"({"id":1})", "missing 'verb'"},
      {R"({"id":1,"verb":"dance"})",
       "unknown verb 'dance' (verbs: run, ping, list, metrics, shutdown)"},
      {R"({"id":1,"verb":"run","attack":"cc","trails":3})",
       "unknown field 'trails' in run request"},
      // Retired spellings: the kernel-defense aliases (now "defenses")
      // and the KASLR rounds alias (now "batches").
      {R"({"id":1,"verb":"run","attack":"kaslr","kpti":true})",
       "unknown field 'kpti' in run request"},
      {R"({"id":1,"verb":"run","attack":"kaslr","flare":true})",
       "unknown field 'flare' in run request"},
      {R"({"id":1,"verb":"run","attack":"kaslr","fgkaslr":true})",
       "unknown field 'fgkaslr' in run request"},
      {R"({"id":1,"verb":"run","attack":"kaslr","rounds":2})",
       "unknown field 'rounds' in run request"},
      {R"({"id":1,"verb":"ping","attack":"cc"})",
       "field 'attack' not allowed with verb 'ping'"},
      {R"({"id":1,"verb":"run","attack":7})", "field 'attack' must be a string"},
      {R"({"id":1,"verb":"run","attack":"cc","trials":1.5})",
       "field 'trials' must be an integer"},
      {R"({"id":1,"verb":"run","attack":"cc","cpu":99})",
       "field 'cpu' out of range"},
      {R"({"id":1,"verb":"run","attack":"cc","noise":"hurricane"})",
       "unknown noise preset 'hurricane'"},
      // Integers outside a field's range are refused by name, never cast
      // from a double into something that silently runs.
      {R"({"id":1,"verb":"run","trials":1e10})", "field 'trials'"},
      {R"({"id":1,"verb":"run","seed":-1})", "field 'seed'"},
      {R"({"id":1,"verb":"run","seed":1e30})", "field 'seed'"},
      {R"({"id":1,"verb":"run","trial_first":18446744073709551616})",
       "field 'trial_first'"},
      {R"({"id":1,"verb":"run","trials":2,)"
       R"("trial_first":18446744073709551615})",
       "field 'trial_first' + trials"},
  };
  for (const auto& [line, want] : cases) {
    try {
      (void)parse_request(line);
      FAIL() << "accepted: " << line;
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeProtocol, ReadsSixtyFourBitIntegersExactly) {
  // Neither value has a double: both must arrive digit for digit.
  EXPECT_EQ(parse_request(R"({"id":1,"verb":"run","seed":9007199254740993})")
                .spec.base_seed,
            9007199254740993ULL);
  EXPECT_EQ(
      parse_request(R"({"id":1,"verb":"run","seed":18446744073709551615})")
          .spec.base_seed,
      18446744073709551615ULL);
}

TEST(ServeProtocol, RejectsOversizedRequestLines) {
  std::string huge = R"({"id":1,"verb":"ping",)";
  huge.append(kMaxRequestBytes, ' ');
  try {
    (void)parse_request(huge);
    FAIL() << "accepted an oversized request";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("request line exceeds"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Golden transcripts: exact response bytes for the fixed verbs and the
// error paths. These strings are the wire contract — update deliberately.

TEST(ServeGolden, PingPongExactBytes) {
  LoopbackTransport transport;
  Server server(transport, {});
  server.start();
  const auto lines = transact(transport, {R"({"id":5,"verb":"ping"})"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], R"({"id":5,"type":"pong","workers":1})");
  server.stop();
}

TEST(ServeGolden, ListNamesEveryRegisteredAttackAndDefenseInRegistryOrder) {
  LoopbackTransport transport;
  Server server(transport, {});
  server.start();
  const auto lines = transact(transport, {R"({"id":3,"verb":"list"})"});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(
      lines[0],
      R"x({"id":3,"type":"attacks","attacks":["cc","md","zbl","rsb","v1",)x"
      R"x("rewind","kaslr"],)x"
      R"x("defenses":[{"name":"kpti","description":"kernel page-table isolation: )x"
      R"x(user view keeps only the trampoline mapped (paper section 6.2)",)x"
      R"x("params":[]},{"name":"flare","description":"dummy mappings over the )x"
      R"x(unmapped kernel gaps so mapped and unmapped probes fault alike",)x"
      R"x("params":[]},{"name":"fgkaslr","description":"function-grained KASLR: )x"
      R"x(shuffle offsets inside the kernel image at boot","params":[]},)x"
      R"x({"name":"lfence","description":"compiler serialization: dispatch )x"
      R"x(stalls after every unresolved conditional branch, as if an LFENCE )x"
      R"x(followed each Jcc","params":[]},{"name":"window","description":)x"
      R"x("speculation-window narrowing: clamp how many uops may allocate past )x"
      R"x(the oldest unresolved branch/fault","params":[{"name":"depth",)x"
      R"x("default":"8","description":"max uops allocated past an unresolved )x"
      R"x(opener"}]},{"name":"retpoline","description":"retpoline-style RSB )x"
      R"x(hygiene: returns never speculate from the RSB; the front end waits )x"
      R"x(for the real target","params":[]},{"name":"flushclear","description":)x"
      R"x("flush-on-clear: every machine clear also flushes the caches and )x"
      R"x(drains the line-fill buffer","params":[{"name":"levels","default":)x"
      R"x("1","description":"cache levels flushed on each clear (1-3)"}]}]})x");
  server.stop();
}

TEST(ServeGolden, UnknownAttackKeepsTheRunnerMessageContract) {
  LoopbackTransport transport;
  Server server(transport, {});
  server.start();
  const auto lines = transact(
      transport, {R"({"id":7,"verb":"run","attack":"kalsr","trials":1})"});
  ASSERT_EQ(lines.size(), 1u);
  // The registry keys must be listed, exactly as runner::validate() words
  // it — the serve layer forwards the runner's diagnostics untouched.
  EXPECT_EQ(lines[0],
            R"x({"id":7,"type":"error","error":"runner: unknown attack )x"
            R"x('kalsr' (registered: cc, md, zbl, rsb, v1, rewind, kaslr)"})x");
  server.stop();
}

TEST(ServeGolden, MalformedJsonAnswersWithErrorIdZero) {
  LoopbackTransport transport;
  Server server(transport, {});
  server.start();
  // The second line nests 65,000 levels deep, under the byte cap: it must
  // hit the parser's nesting cap, not overflow the daemon's stack.
  const auto lines = transact(
      transport,
      {"{nope", std::string(65000, '['), R"({"id":4,"verb":"ping"})"});
  ASSERT_EQ(lines.size(), 3u);
  // Unattributable requests: id 0. The connection survives — the next
  // request on the same connection is answered normally.
  for (int i = 0; i < 2; ++i) {
    EXPECT_NE(lines[i].find(R"("id":0,"type":"error")"), std::string::npos);
    EXPECT_NE(lines[i].find("bad JSON"), std::string::npos);
  }
  EXPECT_EQ(lines[2], R"({"id":4,"type":"pong","workers":1})");
  server.stop();
}

TEST(ServeGolden, OversizedRequestIsRejectedNotServed) {
  LoopbackTransport transport;
  Server server(transport, {});
  server.start();
  std::string huge = R"({"id":8,"verb":"run","attack":"cc","pad":")";
  huge.append(2 * kMaxRequestBytes, 'x');
  huge += R"("})";
  const auto lines = transact(transport, {huge});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find(R"("id":0,"type":"error")"), std::string::npos);
  EXPECT_NE(lines[0].find("request line exceeds"), std::string::npos);
  server.stop();
}

TEST(ServeGolden, MetricsVerbReturnsAValidRegistryDocument) {
  LoopbackTransport transport;
  Server server(transport, {});
  server.start();
  const auto lines = transact(
      transport, {run_request(1, "cc", 7, 1), R"({"id":2,"verb":"metrics"})"});
  ASSERT_GE(lines.size(), 3u);  // trial, done, metrics
  const auto groups = by_id(lines);
  ASSERT_EQ(groups.at(2).size(), 1u);
  const std::string& m = groups.at(2)[0];
  EXPECT_TRUE(stats::json_is_valid(m)) << m;
  const stats::JsonValue doc = stats::json_parse(m);
  const stats::JsonValue* metrics = doc.get("metrics");
  ASSERT_NE(metrics, nullptr);
  const stats::JsonValue* counters = metrics->get("counters");
  ASSERT_NE(counters, nullptr);
  // Pool and queue accounting are folded into the registry snapshot.
  EXPECT_NE(counters->get("serve.requests"), nullptr);
  EXPECT_NE(counters->get("serve.pool.created"), nullptr);
  EXPECT_NE(counters->get("serve.queue.pushed"), nullptr);
  ASSERT_NE(metrics->get("gauges"), nullptr);
  EXPECT_NE(metrics->get("gauges")->get("serve.pool.capacity"), nullptr);
  server.stop();
}

TEST(ServeGolden, ShutdownVerbAnswersByeAndWakesWaiters) {
  LoopbackTransport transport;
  Server server(transport, {});
  server.start();
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    server.wait_shutdown();
    woke = true;
  });
  auto client = transport.connect();
  client->send(R"({"id":6,"verb":"shutdown"})");
  std::string line;
  ASSERT_TRUE(client->recv(line));
  EXPECT_EQ(line, R"({"id":6,"type":"bye"})");
  waiter.join();
  EXPECT_TRUE(woke);
  server.stop();
}

// ---------------------------------------------------------------------------
// Loopback round-trip: every attack in the registry is servable.

TEST(ServeRoundTrip, EveryRegisteredAttackRunsOverTheWire) {
  LoopbackTransport transport;
  Server server(transport, {.jobs = 2, .pool_capacity = 2});
  server.start();
  std::vector<std::string> requests;
  std::uint64_t id = 1;
  for (const std::string& attack : core::attack_names())
    requests.push_back(run_request(id++, attack, 0x5eed, 1));
  const auto groups = by_id(transact(transport, requests));
  ASSERT_EQ(groups.size(), core::attack_names().size());
  for (const auto& [rid, lines] : groups) {
    ASSERT_EQ(lines.size(), 2u) << "request " << rid;  // 1 trial + done
    EXPECT_NE(lines[0].find(R"("type":"trial","index":0,"ok":true)"),
              std::string::npos)
        << lines[0];
    EXPECT_NE(lines[1].find(R"("type":"done")"), std::string::npos);
    EXPECT_NE(lines[1].find(R"("completed":1,"failed":0)"), std::string::npos)
        << lines[1];
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Invariant 11: the wire is the library. A served request's lines equal
// the lines assembled by hand from runner::run()'s result — same seeds,
// same cycles, same fault accounting, byte for byte.

TEST(ServeDeterminism, WireStreamEqualsRunnerRunByteForByte) {
  runner::RunSpec spec;
  spec.attack = "cc";
  spec.trials = 3;
  spec.base_seed = 0xf00d;
  spec.batches = 2;
  spec.payload_bytes = 2;
  spec.retries = 1;
  spec.fault_plan = "throw@1";
  const runner::RunResult reference = runner::run(spec, /*jobs=*/1);

  LoopbackTransport transport;
  Server server(transport, {.jobs = 2, .pool_capacity = 2});
  server.start();
  const auto lines = transact(
      transport, {run_request(11, "cc", 0xf00d, 3,
                              R"(,"retries":1,"fault_plan":"throw@1")")});
  server.stop();

  ASSERT_EQ(lines.size(), 4u);  // 3 trials + done
  ASSERT_EQ(reference.trials.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const runner::ScheduledTrial st{reference.trials[i],
                                    reference.outcomes[i]};
    EXPECT_EQ(lines[i], response_trial(11, i, st)) << "trial " << i;
  }
  EXPECT_EQ(lines[3], response_done(11, reference));
  // The injected fault really fired and really was retried — this is not
  // a vacuous comparison of two clean runs.
  EXPECT_EQ(reference.retried, 1u);
}

// Satellite 2: the same batch through 1 and 8 workers produces
// byte-identical per-request response streams (grouped by request id).
TEST(ServeDeterminism, WorkerCountCannotChangeResponseBytes) {
  // 4 clients × 3 requests, mixed attacks/seeds/faults, globally unique ids.
  const auto batch_for = [](std::uint64_t client) {
    std::vector<std::string> reqs;
    const std::uint64_t base = (client + 1) * 100;
    reqs.push_back(run_request(base + 0, "cc", 0xc0 + client, 2));
    reqs.push_back(run_request(base + 1, "kaslr", 0xaa + client, 1));
    reqs.push_back(run_request(base + 2, "v1", 0x51 + client, 2,
                               R"(,"retries":1,"fault_plan":"throw@0")"));
    return reqs;
  };

  const auto serve_batch = [&](int jobs) {
    LoopbackTransport transport;
    Server server(transport, {.jobs = jobs, .pool_capacity = 3});
    server.start();
    // All clients connect and send before anything is drained, so with
    // jobs=8 the requests genuinely interleave across workers.
    std::vector<std::unique_ptr<LoopbackClient>> clients;
    for (std::uint64_t c = 0; c < 4; ++c) {
      clients.push_back(transport.connect());
      for (const auto& r : batch_for(c)) clients.back()->send(r);
      clients.back()->close_send();
    }
    std::map<std::uint64_t, std::vector<std::string>> groups;
    for (auto& client : clients) {
      std::string line;
      while (client->recv(line)) {
        const auto g = by_id({line});
        for (const auto& [id, ls] : g)
          groups[id].insert(groups[id].end(), ls.begin(), ls.end());
      }
    }
    server.stop();
    return groups;
  };

  const auto one = serve_batch(1);
  const auto eight = serve_batch(8);
  ASSERT_EQ(one.size(), 12u);
  ASSERT_EQ(eight.size(), 12u);
  for (const auto& [id, lines] : one) {
    ASSERT_TRUE(eight.count(id)) << "request " << id;
    EXPECT_EQ(lines, eight.at(id)) << "request " << id;
  }
}

// ---------------------------------------------------------------------------
// Satellite 3: MachinePool semantics at unit level — no sockets.

runner::RunSpec pool_spec(uarch::CpuModel model) {
  runner::RunSpec spec;
  spec.model = model;
  spec.attack = "cc";
  return spec;
}

TEST(MachinePool, KeyedReuseServesTheCachedMachine) {
  runner::MachinePool pool(2);
  const auto spec = pool_spec(uarch::CpuModel::KabyLakeI7_7700);
  { auto lease = pool.acquire(spec, 1); }
  { auto lease = pool.acquire(spec, 2); }
  const auto s = pool.stats();
  EXPECT_EQ(s.created, 1u);
  EXPECT_EQ(s.reused, 1u);
  EXPECT_EQ(s.evicted, 0u);
}

TEST(MachinePool, DifferentKeysDoNotAlias) {
  runner::MachinePool pool(2);
  { auto a = pool.acquire(pool_spec(uarch::CpuModel::KabyLakeI7_7700), 1); }
  { auto b = pool.acquire(pool_spec(uarch::CpuModel::SkylakeI7_6700), 1); }
  const auto s = pool.stats();
  EXPECT_EQ(s.created, 2u);
  EXPECT_EQ(s.reused, 0u);
}

TEST(MachinePool, AdmissionCapBlocksUntilARelease) {
  runner::MachinePool pool(2);
  const auto spec = pool_spec(uarch::CpuModel::KabyLakeI7_7700);
  auto a = pool.acquire(spec, 1);
  auto b = pool.acquire(spec, 2);
  EXPECT_EQ(pool.stats().in_use, 2u);

  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    auto c = pool.acquire(spec, 3);
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(acquired) << "third acquire must block at capacity 2";
  a = runner::MachinePool::Lease{};  // release one slot
  blocked.join();
  EXPECT_TRUE(acquired);
  EXPECT_GE(pool.stats().waited, 1u);
}

TEST(MachinePool, EvictsLeastRecentlyReleasedIdleMachine) {
  runner::MachinePool pool(2);
  const auto a = pool_spec(uarch::CpuModel::SkylakeI7_6700);
  const auto b = pool_spec(uarch::CpuModel::KabyLakeI7_7700);
  const auto c = pool_spec(uarch::CpuModel::CometLakeI9_10980XE);
  { auto l = pool.acquire(a, 1); }  // idle: [a]
  { auto l = pool.acquire(b, 1); }  // idle: [a, b]
  { auto l = pool.acquire(c, 1); }  // full: evict a (oldest release)
  EXPECT_EQ(pool.stats().evicted, 1u);
  { auto l = pool.acquire(b, 2); }  // b survived the eviction
  EXPECT_EQ(pool.stats().reused, 1u);
  { auto l = pool.acquire(a, 2); }  // a did not: rebuilt (evicting again)
  const auto s = pool.stats();
  EXPECT_EQ(s.created, 4u);
  EXPECT_EQ(s.evicted, 2u);
}

TEST(MachinePool, ConstructionThatThrowsGivesItsSlotBack) {
  runner::MachinePool pool(2);
  const auto spec = pool_spec(uarch::CpuModel::KabyLakeI7_7700);
  runner::RunSpec broken = spec;
  // Names no registered defense: defense::apply throws while the pool
  // builds the machine, after the pool admitted it.
  broken.defenses = {defense::DefenseSpec{.name = "no-such-defense"}};
  for (int i = 0; i < 3; ++i) {  // more failures than the pool has slots
    EXPECT_THROW((void)pool.acquire(broken, 1), std::invalid_argument);
    ASSERT_EQ(pool.stats().in_use, 0u) << "failure " << i << " kept a slot";
  }
  auto a = pool.acquire(spec, 1);
  auto b = pool.acquire(spec, 2);
  const auto s = pool.stats();
  EXPECT_EQ(s.in_use, 2u);
  EXPECT_EQ(s.created, 2u);
  EXPECT_EQ(s.waited, 0u);
}

TEST(MachinePool, QuarantinedMachineIsNeverReissued) {
  runner::MachinePool pool(2);
  const auto spec = pool_spec(uarch::CpuModel::KabyLakeI7_7700);
  {
    auto lease = pool.acquire(spec, 1);
    lease.quarantine();
    EXPECT_FALSE(lease.valid());
  }
  auto s = pool.stats();
  EXPECT_EQ(s.quarantined, 1u);
  EXPECT_EQ(s.idle, 0u) << "a quarantined machine must not return to idle";
  // The next acquire for the same key must construct fresh, not reuse.
  { auto lease = pool.acquire(spec, 2); }
  s = pool.stats();
  EXPECT_EQ(s.created, 2u);
  EXPECT_EQ(s.reused, 0u);
}

TEST(MachinePool, StatsStayMonotonicAndGaugesBounded) {
  runner::MachinePool pool(2);
  runner::MachinePoolStats prev = pool.stats();
  EXPECT_EQ(prev.capacity, 2u);
  const uarch::CpuModel models[] = {uarch::CpuModel::SkylakeI7_6700,
                                    uarch::CpuModel::KabyLakeI7_7700,
                                    uarch::CpuModel::CometLakeI9_10980XE};
  for (int round = 0; round < 6; ++round) {
    auto lease = pool.acquire(pool_spec(models[round % 3]), round);
    if (round % 4 == 3) lease.quarantine();
    const auto s = pool.stats();
    EXPECT_GE(s.created, prev.created);
    EXPECT_GE(s.reused, prev.reused);
    EXPECT_GE(s.evicted, prev.evicted);
    EXPECT_GE(s.quarantined, prev.quarantined);
    EXPECT_GE(s.waited, prev.waited);
    EXPECT_LE(s.in_use + s.idle, s.capacity);
    prev = s;
  }
}

TEST(MachinePool, ThisThreadIsPerThread) {
  runner::MachinePool* here = &runner::MachinePool::this_thread();
  EXPECT_EQ(here, &runner::MachinePool::this_thread());
  runner::MachinePool* there = nullptr;
  std::thread t([&] { there = &runner::MachinePool::this_thread(); });
  t.join();
  EXPECT_NE(here, there);
}

// ---------------------------------------------------------------------------
// FairScheduler: round-robin across clients, drain-then-stop shutdown.

TEST(FairScheduler, StarvedClientIsServedWithinOneRotation) {
  FairScheduler<int> sched;
  // Client 0 floods 10 jobs before client 1 submits a single one.
  for (int j = 0; j < 10; ++j) ASSERT_TRUE(sched.push(0, j));
  ASSERT_TRUE(sched.push(1, 100));
  std::vector<int> order;
  int job = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sched.pop(job));
    order.push_back(job);
  }
  // Rotation: c0, c1, then back to c0's backlog — the lone job waits
  // behind at most one job of the flooding client, not ten.
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 2}));
}

TEST(FairScheduler, CloseRefusesNewJobsButDrainsQueuedOnes) {
  FairScheduler<int> sched;
  ASSERT_TRUE(sched.push(0, 1));
  ASSERT_TRUE(sched.push(0, 2));
  sched.close();
  EXPECT_FALSE(sched.push(0, 3));  // refused, not queued
  int job = 0;
  EXPECT_TRUE(sched.pop(job));
  EXPECT_EQ(job, 1);
  EXPECT_TRUE(sched.pop(job));
  EXPECT_EQ(job, 2);
  EXPECT_FALSE(sched.pop(job)) << "closed and drained: end of queue";
  const auto s = sched.stats();
  EXPECT_EQ(s.pushed, 2u);
  EXPECT_EQ(s.popped, 2u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.depth, 0u);
}

// A late run request (after stop() closed the scheduler) is answered with
// an explicit error line — refused loudly, never dropped silently. Here
// the whole server is already stopped, so we assert at the scheduler
// level plus the protocol error text used by the server path.
TEST(FairScheduler, StatsDepthTracksQueuedJobs) {
  FairScheduler<int> sched;
  sched.push(0, 1);
  sched.push(1, 2);
  sched.push(1, 3);
  EXPECT_EQ(sched.stats().depth, 3u);
  int job;
  sched.pop(job);
  EXPECT_EQ(sched.stats().depth, 2u);
}

}  // namespace
}  // namespace whisper::serve

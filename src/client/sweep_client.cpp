#include "client/sweep_client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "client/flaky.h"
#include "client/wire.h"
#include "serve/protocol.h"
#include "stats/json.h"
#include "stats/rng.h"

namespace whisper::client {

namespace {

struct Chunk {
  std::size_t first = 0;
  int count = 0;
};

/// Everything the per-endpoint workers share, under one mutex.
struct SweepState {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::deque<Chunk>> owned;  // per-endpoint home queues
  std::deque<Chunk> orphaned;            // chunks of dead endpoints
  std::vector<std::string> lines;        // canonical trial lines by index
  std::size_t received = 0;
  std::size_t chunks_done = 0;
  std::size_t chunks_total = 0;
  bool fatal = false;
  std::string error;
  SweepStats stats;

  [[nodiscard]] bool finished() const {
    return fatal || chunks_done == chunks_total;
  }
};

/// A non-negative integer member of a response; nullopt when absent or
/// not one.
std::optional<std::uint64_t> u64_member(const stats::JsonValue& doc,
                                        const char* key) {
  const stats::JsonValue* v = doc.get(key);
  return v != nullptr ? v->as_int<std::uint64_t>() : std::nullopt;
}

/// One endpoint's worker: claims chunks (home queue first, then orphans),
/// executes each against the endpoint with retries, and dies after too
/// many consecutive failures — donating its remaining chunks.
class EndpointWorker {
 public:
  EndpointWorker(const SweepOptions& opts, const runner::RunSpec& spec,
                 SweepState& state, Endpoint& endpoint, std::size_t index,
                 std::atomic<std::uint64_t>& next_id,
                 const fault::FaultPlan& flaky)
      : opts_(opts),
        spec_(spec),
        state_(state),
        endpoint_(endpoint),
        index_(index),
        next_id_(next_id),
        flaky_(flaky) {}

  void run() {
    for (;;) {
      Chunk chunk;
      bool from_orphans = false;
      {
        std::unique_lock<std::mutex> lock(state_.mu);
        state_.cv.wait(lock, [this] {
          return state_.finished() || !state_.owned[index_].empty() ||
                 !state_.orphaned.empty();
        });
        if (state_.finished()) return;
        if (!state_.owned[index_].empty()) {
          chunk = state_.owned[index_].front();
          state_.owned[index_].pop_front();
        } else {
          chunk = state_.orphaned.front();
          state_.orphaned.pop_front();
          from_orphans = true;
          ++state_.stats.reassigned;
        }
      }
      (void)from_orphans;
      if (!execute(chunk)) return;  // endpoint declared dead
    }
  }

 private:
  /// Run one chunk to completion. Returns false when the endpoint died
  /// (the chunk and the home queue have been donated to the orphan pool).
  bool execute(Chunk chunk) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(state_.mu);
        if (state_.fatal) return false;
      }
      if (!conn_ && !dial()) {
        if (give_up(chunk)) return false;
        continue;
      }
      if (attempt_request(chunk)) {
        consecutive_failures_ = 0;
        backoff_attempt_ = 0;
        std::lock_guard<std::mutex> lock(state_.mu);
        ++state_.chunks_done;
        if (state_.finished()) state_.cv.notify_all();
        return true;
      }
      // attempt_request() already tore the connection down (or fatal'd).
      if (give_up(chunk)) return false;
    }
  }

  bool dial() {
    try {
      std::unique_ptr<serve::Connection> raw =
          endpoint_.dial(opts_.connect_timeout_ms);
      if (!flaky_.empty())
        conn_ = std::make_unique<FlakyConnection>(
            std::move(raw), flaky_, sent_requests_, opts_.flaky_stall_ms);
      else
        conn_ = std::move(raw);
      return true;
    } catch (const serve::DialError&) {
      std::lock_guard<std::mutex> lock(state_.mu);
      ++state_.stats.unreachable;
      return false;
    }
  }

  /// Send the chunk's request and consume its response stream. True on a
  /// verified done line; false after tearing down the connection (retry)
  /// or flagging a fatal error.
  bool attempt_request(const Chunk& chunk) {
    const std::uint64_t id = next_id_.fetch_add(1) + 1;
    std::string request;
    try {
      request = run_request_json(id, spec_, chunk.first, chunk.count);
    } catch (const std::exception& e) {
      fail_fatal(e.what());
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(state_.mu);
      ++state_.stats.requests;
    }
    const bool wrote = conn_->write_line(request);
    ++sent_requests_;  // mirrors FlakyConnection's ordinal, drop included
    if (!wrote) {
      drop_connection();
      return false;
    }

    const auto start = std::chrono::steady_clock::now();
    std::string line;
    for (;;) {
      int remaining = opts_.deadline_ms;
      if (opts_.deadline_ms >= 0) {
        const auto spent =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        remaining = opts_.deadline_ms > spent
                        ? static_cast<int>(opts_.deadline_ms - spent)
                        : 0;
      }
      const serve::ReadStatus st = conn_->read_line_for(line, remaining);
      if (st == serve::ReadStatus::kTimeout) {
        {
          std::lock_guard<std::mutex> lock(state_.mu);
          ++state_.stats.timed_out;
        }
        drop_connection();
        return false;
      }
      if (st == serve::ReadStatus::kClosed) {
        drop_connection();
        return false;
      }
      stats::JsonValue doc;
      try {
        doc = stats::json_parse(line);
      } catch (const std::exception&) {
        // Torn line (a shortread, a daemon crash mid-write): transport
        // failure, not data.
        drop_connection();
        return false;
      }
      const stats::JsonValue* type = doc.get("type");
      if (type == nullptr || !type->is_string()) {
        drop_connection();
        return false;
      }
      if (type->string == "error") {
        // A refusal is deterministic — every endpoint would refuse the
        // same spec — so retrying elsewhere cannot help.
        const stats::JsonValue* msg = doc.get("error");
        fail_fatal(msg != nullptr && msg->is_string() ? msg->string
                                                      : "server error");
        return false;
      }
      if (u64_member(doc, "id") != id) {
        drop_connection();  // stream out of sync with the request
        return false;
      }
      if (type->string == "trial") {
        if (!store_trial(doc, line)) return false;  // fatal
        continue;
      }
      if (type->string == "done") return verify_chunk(chunk);
      drop_connection();  // unexpected response type mid-run
      return false;
    }
  }

  /// Store one trial line by absolute index; duplicates must match the
  /// stored bytes exactly. Returns false on a fatal determinism breach.
  bool store_trial(const stats::JsonValue& doc, const std::string& line) {
    const std::optional<std::uint64_t> index = u64_member(doc, "index");
    std::size_t endpoint_trials = 0;
    bool stored = false;
    {
      std::lock_guard<std::mutex> lock(state_.mu);
      if (!index || *index >= state_.lines.size()) {
        set_fatal("client: trial line without an in-range index");
        return false;
      }
      std::string canonical = normalize_id(line);
      std::string& slot = state_.lines[static_cast<std::size_t>(*index)];
      if (slot.empty()) {
        slot = std::move(canonical);
        ++state_.received;
        stored = true;
        endpoint_trials = ++state_.stats.trials_by_endpoint[index_];
      } else {
        ++state_.stats.duplicate_trials;
        if (slot != canonical) {
          set_fatal("client: trial " + std::to_string(*index) +
                    " differs between endpoints — determinism violation "
                    "(invariant 13)");
          return false;
        }
      }
    }
    if (stored && opts_.on_trial) opts_.on_trial(index_, endpoint_trials);
    return true;
  }

  /// The done line arrived: the chunk counts only if every one of its
  /// trials is stored (a torn stream could lose lines yet deliver done
  /// through a replay on another connection).
  bool verify_chunk(const Chunk& chunk) {
    std::lock_guard<std::mutex> lock(state_.mu);
    for (std::size_t i = chunk.first;
         i < chunk.first + static_cast<std::size_t>(chunk.count); ++i)
      if (state_.lines[i].empty()) return false;
    return true;
  }

  void drop_connection() {
    if (conn_) {
      conn_->close();
      conn_.reset();
      std::lock_guard<std::mutex> lock(state_.mu);
      ++state_.stats.reconnects;
    }
  }

  /// Account one failure; after too many in a row the endpoint dies:
  /// its current chunk and home queue are donated to the orphan pool.
  /// Otherwise back off and let the caller retry. True = endpoint dead.
  bool give_up(const Chunk& chunk) {
    ++consecutive_failures_;
    if (consecutive_failures_ <= opts_.endpoint_failures) {
      backoff();
      return false;
    }
    std::lock_guard<std::mutex> lock(state_.mu);
    state_.orphaned.push_back(chunk);
    while (!state_.owned[index_].empty()) {
      state_.orphaned.push_back(state_.owned[index_].front());
      state_.owned[index_].pop_front();
    }
    ++state_.stats.dead_endpoints;
    state_.cv.notify_all();
    return true;
  }

  void backoff() {
    const std::uint64_t attempt = backoff_attempt_++;
    std::int64_t ms = opts_.backoff_base_ms;
    for (std::uint64_t i = 0; i < attempt && ms < opts_.backoff_max_ms; ++i)
      ms *= 2;
    if (ms > opts_.backoff_max_ms) ms = opts_.backoff_max_ms;
    // Deterministic jitter in [0.5, 1): seeded, so a test's failure
    // schedule replays exactly; spread, so N clients hammering one
    // recovering daemon do not sync up.
    const std::uint64_t roll =
        stats::SplitMix64(opts_.jitter_seed ^
                          (index_ * 0x100000001b3ULL) ^ attempt)
            .next() %
        1000;
    ms = ms / 2 + (ms * static_cast<std::int64_t>(roll)) / 2000;
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

  void fail_fatal(const std::string& message) {
    std::lock_guard<std::mutex> lock(state_.mu);
    set_fatal(message);
  }

  /// Caller holds state_.mu.
  void set_fatal(const std::string& message) {
    if (!state_.fatal) {
      state_.fatal = true;
      state_.error = message;
    }
    state_.cv.notify_all();
  }

  const SweepOptions& opts_;
  const runner::RunSpec& spec_;
  SweepState& state_;
  Endpoint& endpoint_;
  std::size_t index_;
  std::atomic<std::uint64_t>& next_id_;
  const fault::FaultPlan& flaky_;

  std::unique_ptr<serve::Connection> conn_;
  std::uint64_t sent_requests_ = 0;
  int consecutive_failures_ = 0;
  std::uint64_t backoff_attempt_ = 0;
};

}  // namespace

SweepClient::SweepClient(SweepOptions opts) : opts_(std::move(opts)) {
  if (opts_.chunk_trials < 1) opts_.chunk_trials = 1;
  if (opts_.endpoint_failures < 0) opts_.endpoint_failures = 0;
}

SweepResult SweepClient::sweep(
    const runner::RunSpec& spec,
    const std::vector<std::shared_ptr<Endpoint>>& endpoints) {
  if (endpoints.empty())
    throw std::invalid_argument("client: sweep needs at least one endpoint");
  runner::validate(spec);
  // Fail fast on specs the wire cannot carry (collect_trace, unnamed
  // noise profiles) — same errors run_request_json would throw mid-sweep.
  (void)run_request_json(1, spec, 0, 1);
  const fault::FaultPlan flaky = fault::FaultPlan::parse(opts_.flaky_plan);
  if (!flaky.empty()) {
    // Surface trial-kind misuse before any thread spawns.
    FlakyConnection probe(nullptr, flaky, 0, 0);
    (void)probe;
  }

  const std::size_t n =
      spec.trials > 0 ? static_cast<std::size_t>(spec.trials) : 0;
  SweepState state;
  state.owned.resize(endpoints.size());
  state.lines.resize(n);
  state.stats.trials_by_endpoint.resize(endpoints.size());
  for (std::size_t first = 0; first < n;
       first += static_cast<std::size_t>(opts_.chunk_trials)) {
    Chunk chunk;
    chunk.first = first;
    chunk.count = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(opts_.chunk_trials),
                              n - first));
    state.owned[state.chunks_total % endpoints.size()].push_back(chunk);
    ++state.chunks_total;
  }

  std::atomic<std::uint64_t> next_id{0};
  std::vector<std::unique_ptr<EndpointWorker>> workers;
  std::vector<std::thread> threads;
  workers.reserve(endpoints.size());
  for (std::size_t e = 0; e < endpoints.size(); ++e)
    workers.push_back(std::make_unique<EndpointWorker>(
        opts_, spec, state, *endpoints[e], e, next_id, flaky));
  threads.reserve(endpoints.size());
  for (std::size_t e = 0; e < endpoints.size(); ++e)
    threads.emplace_back([&workers, e] { workers[e]->run(); });
  for (std::thread& t : threads) t.join();

  SweepResult result;
  result.trials_received = state.received;
  result.trial_lines = std::move(state.lines);
  result.error = state.error;
  result.stats = std::move(state.stats);
  result.complete = !state.fatal && state.received == n &&
                    state.chunks_done == state.chunks_total;
  if (result.complete) {
    // The runner's own merge over the decoded trials: the done line is the
    // bytes a local run would report.
    runner::RunResult merged;
    merged.spec = spec;
    for (const std::string& line : result.trial_lines)
      runner::fold(merged, serve::decode_trial(line));
    result.done_line = canonical_done_line(merged);
  }
  return result;
}

}  // namespace whisper::client

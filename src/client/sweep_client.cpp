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

/// Seeds the backoff jitter; it times sleeps only, never a result byte.
constexpr std::uint64_t kJitterSeed = 0x5eedULL;

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

/// One endpoint's worker: keeps up to `window_` chunks in flight on its one
/// connection (home queue first, then orphans), routes each response line
/// to its chunk by id, and dies after too many consecutive failures —
/// donating its remaining chunks.
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
      if (!await_work()) return;
      if (!conn_ && !dial()) {
        if (give_up()) return;
        continue;
      }
      if (!fill_window()) return;  // fatal
      if (!conn_) {                // a request could not be written
        if (give_up()) return;
        continue;
      }
      if (inflight_.empty()) continue;  // survivors took the orphans first
      const Step step = read_one();
      if (step == Step::kFatal) return;
      if (step == Step::kDropped && give_up()) return;
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// A chunk whose request is on the wire. `last` is the request's send
  /// time or its latest response line: the chunk's deadline runs from it.
  struct InFlight {
    std::uint64_t id = 0;
    Chunk chunk;
    Clock::time_point last;
  };

  enum class Step : std::uint8_t { kOk, kDropped, kFatal };

  /// False when the sweep is over (complete or fatal). With nothing in
  /// flight, blocks until this endpoint has work to claim.
  bool await_work() {
    std::unique_lock<std::mutex> lock(state_.mu);
    state_.cv.wait(lock, [this] {
      return state_.finished() || !inflight_.empty() ||
             !state_.owned[index_].empty() || !state_.orphaned.empty();
    });
    return !state_.finished();
  }

  /// Dial, then ask the daemon its worker count with one ping on the raw
  /// connection — before any FlakyConnection wrapping, so flaky request
  /// ordinals count run requests only.
  bool dial() {
    std::unique_ptr<serve::Connection> raw;
    try {
      raw = endpoint_.dial(opts_.connect_timeout_ms);
    } catch (const serve::DialError&) {
      std::lock_guard<std::mutex> lock(state_.mu);
      ++state_.stats.unreachable;
      return false;
    }
    const std::optional<std::uint64_t> workers = ping(*raw);
    if (!workers) {
      raw->close();
      std::lock_guard<std::mutex> lock(state_.mu);
      ++state_.stats.reconnects;
      return false;
    }
    window_ = *workers;
    if (!flaky_.empty())
      conn_ = std::make_unique<FlakyConnection>(
          std::move(raw), flaky_, flaky_requests_, opts_.flaky_stall_ms);
    else
      conn_ = std::move(raw);
    return true;
  }

  /// The daemon's worker count off its pong: the window size. A pong
  /// without "workers" means 1. Nullopt when no pong arrives in time.
  std::optional<std::uint64_t> ping(serve::Connection& conn) {
    const std::uint64_t id = next_id_.fetch_add(1) + 1;
    if (!conn.write_line("{\"id\":" + std::to_string(id) +
                         ",\"verb\":\"ping\"}"))
      return std::nullopt;
    std::string line;
    const serve::ReadStatus st = conn.read_line_for(line, opts_.deadline_ms);
    if (st == serve::ReadStatus::kTimeout) {
      std::lock_guard<std::mutex> lock(state_.mu);
      ++state_.stats.timed_out;
    }
    if (st != serve::ReadStatus::kLine) return std::nullopt;
    stats::JsonValue doc;
    try {
      doc = stats::json_parse(line);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    const stats::JsonValue* type = doc.get("type");
    if (type == nullptr || !type->is_string() || type->string != "pong" ||
        u64_member(doc, "id") != id)
      return std::nullopt;
    return std::max<std::uint64_t>(1, u64_member(doc, "workers").value_or(1));
  }

  /// Claim and send chunks until the window is full or no work is left.
  /// False on a fatal error.
  bool fill_window() {
    while (conn_ && inflight_.size() < window_) {
      Chunk chunk;
      {
        std::lock_guard<std::mutex> lock(state_.mu);
        if (state_.fatal) return false;
        if (!state_.owned[index_].empty()) {
          chunk = state_.owned[index_].front();
          state_.owned[index_].pop_front();
        } else if (!state_.orphaned.empty()) {
          chunk = state_.orphaned.front();
          state_.orphaned.pop_front();
          ++state_.stats.reassigned;
        } else {
          return true;
        }
      }
      const std::uint64_t id = next_id_.fetch_add(1) + 1;
      std::string request;
      try {
        request = run_request_json(id, spec_, chunk.first, chunk.count);
      } catch (const std::exception& e) {
        fail_fatal(e.what());
        return false;
      }
      inflight_.push_back({id, chunk, Clock::now()});
      {
        std::lock_guard<std::mutex> lock(state_.mu);
        ++state_.stats.requests;
      }
      if (!conn_->write_line(request)) drop_connection();
    }
    return true;
  }

  /// Read one response line under the earliest in-flight deadline and
  /// route it to its chunk.
  Step read_one() {
    int timeout_ms = -1;
    if (opts_.deadline_ms >= 0) {
      Clock::time_point due = Clock::time_point::max();
      for (const InFlight& f : inflight_)
        due = std::min(due,
                       f.last + std::chrono::milliseconds(opts_.deadline_ms));
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            due - Clock::now())
                            .count();
      timeout_ms = left > 0 ? static_cast<int>(left) : 0;
    }
    std::string line;
    const serve::ReadStatus st = conn_->read_line_for(line, timeout_ms);
    if (st == serve::ReadStatus::kTimeout) {
      {
        std::lock_guard<std::mutex> lock(state_.mu);
        ++state_.stats.timed_out;
      }
      return drop_connection();
    }
    if (st == serve::ReadStatus::kClosed) return drop_connection();
    stats::JsonValue doc;
    try {
      doc = stats::json_parse(line);
    } catch (const std::exception&) {
      // Torn line (a shortread, a daemon crash mid-write): transport
      // failure, not data.
      return drop_connection();
    }
    const stats::JsonValue* type = doc.get("type");
    if (type == nullptr || !type->is_string()) return drop_connection();
    if (type->string == "error") {
      // A refusal is deterministic — every endpoint would refuse the
      // same spec — so retrying elsewhere cannot help.
      const stats::JsonValue* msg = doc.get("error");
      fail_fatal(msg != nullptr && msg->is_string() ? msg->string
                                                    : "server error");
      return Step::kFatal;
    }
    const std::optional<std::uint64_t> id = u64_member(doc, "id");
    const auto it =
        std::find_if(inflight_.begin(), inflight_.end(),
                     [&](const InFlight& f) { return id == f.id; });
    if (it == inflight_.end()) return drop_connection();  // out of sync
    if (type->string == "trial") {
      if (!store_trial(doc, line)) return Step::kFatal;
      it->last = Clock::now();
      return Step::kOk;
    }
    // A done line counts only if every trial of its chunk is stored.
    if (type->string != "done" || !chunk_stored(it->chunk))
      return drop_connection();
    inflight_.erase(it);
    consecutive_failures_ = 0;
    backoff_attempt_ = 0;
    std::lock_guard<std::mutex> lock(state_.mu);
    ++state_.chunks_done;
    if (state_.finished()) state_.cv.notify_all();
    return Step::kOk;
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

  /// Whether every trial of `chunk` is stored (a torn stream could lose
  /// lines yet deliver done through a replay on another connection).
  bool chunk_stored(const Chunk& chunk) {
    std::lock_guard<std::mutex> lock(state_.mu);
    for (std::size_t i = chunk.first;
         i < chunk.first + static_cast<std::size_t>(chunk.count); ++i)
      if (state_.lines[i].empty()) return false;
    return true;
  }

  /// Tear the connection down and put every in-flight chunk back at the
  /// front of the home queue, in order, for the next connection.
  Step drop_connection() {
    conn_->close();
    conn_.reset();
    std::lock_guard<std::mutex> lock(state_.mu);
    ++state_.stats.reconnects;
    std::deque<Chunk>& home = state_.owned[index_];
    for (auto it = inflight_.rbegin(); it != inflight_.rend(); ++it)
      home.push_front(it->chunk);
    inflight_.clear();
    return Step::kDropped;
  }

  /// Account one failure (a failed dial or a dropped connection, whose
  /// chunks are already back on the home queue); after too many in a row
  /// the endpoint dies and its home queue goes to the orphan pool.
  /// Otherwise back off and let the caller retry. True = endpoint dead.
  bool give_up() {
    ++consecutive_failures_;
    if (consecutive_failures_ <= opts_.endpoint_failures) {
      backoff();
      return false;
    }
    std::lock_guard<std::mutex> lock(state_.mu);
    std::deque<Chunk>& home = state_.owned[index_];
    state_.orphaned.insert(state_.orphaned.end(), home.begin(), home.end());
    home.clear();
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
        stats::SplitMix64(kJitterSeed ^
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
  /// The daemon's worker count from the last pong; in-flight requests
  /// never exceed it.
  std::uint64_t window_ = 1;
  std::vector<InFlight> inflight_;  // send order
  /// The flaky plan's request ordinal, advanced by FlakyConnection on each
  /// write: one count across this endpoint's successive connections.
  std::uint64_t flaky_requests_ = 0;
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
    std::uint64_t unused = 0;
    FlakyConnection probe(nullptr, flaky, unused, 0);
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

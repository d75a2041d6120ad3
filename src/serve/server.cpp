#include "serve/server.h"

#include <exception>
#include <utility>

#include "fault/fault.h"
#include "obs/thread_name.h"
#include "runner/runner.h"

namespace whisper::serve {

Server::Server(Transport& transport, ServerOptions opts)
    : transport_(transport),
      opts_(opts),
      pool_(opts.pool_capacity) {
  if (opts_.jobs < 1) opts_.jobs = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (started_) return;
    started_ = true;
  }
  for (int i = 0; i < opts_.jobs; ++i)
    workers_.emplace_back([this, i] {
      obs::set_current_thread_name("wsp-serve-" + std::to_string(i));
      worker_loop(i);
    });
  accept_thread_ = std::thread([this] {
    obs::set_current_thread_name("wsp-accept");
    accept_loop();
  });
}

void Server::wait_shutdown() {
  std::unique_lock<std::mutex> lock(state_mu_);
  state_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    shutdown_requested_ = true;
  }
  state_cv_.notify_all();

  // 1. No new connections; the accept loop sees nullptr and exits.
  transport_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. No new jobs. Readers still alive keep answering: quick verbs
  //    inline, run requests with an explicit shutting-down error — a late
  //    request is refused loudly, never dropped silently.
  scheduler_.close();

  // 3. Drain: workers finish every job queued before the close, streaming
  //    all of their response lines, then see end-of-queue and exit.
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();

  // 4. Only now sever connections — every response the server will ever
  //    produce is already in the clients' channels (which drain past
  //    close), so this delivers EOF, not data loss. Unblocks any reader
  //    still parked in read_line().
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (auto& weak : connections_)
      if (auto conn = weak.lock()) conn->close();
    connections_.clear();
    readers.swap(readers_);
  }
  for (auto& r : readers)
    if (r.joinable()) r.join();
}

void Server::count(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  registry_.add_counter(name, delta);
}

obs::MetricsRegistry Server::metrics() const {
  obs::MetricsRegistry reg;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    reg.merge(registry_);
  }
  const SchedulerStats q = scheduler_.stats();
  reg.set_counter("serve.queue.pushed", q.pushed);
  reg.set_counter("serve.queue.popped", q.popped);
  reg.set_counter("serve.queue.rejected", q.rejected);
  reg.set_gauge("serve.queue.depth", static_cast<double>(q.depth));
  const runner::MachinePoolStats p = pool_.stats();
  reg.set_counter("serve.pool.created", p.created);
  reg.set_counter("serve.pool.reused", p.reused);
  reg.set_counter("serve.pool.evicted", p.evicted);
  reg.set_counter("serve.pool.quarantined", p.quarantined);
  reg.set_counter("serve.pool.waited", p.waited);
  reg.set_gauge("serve.pool.in_use", static_cast<double>(p.in_use));
  reg.set_gauge("serve.pool.idle", static_cast<double>(p.idle));
  reg.set_gauge("serve.pool.capacity", static_cast<double>(p.capacity));
  return reg;
}

void Server::accept_loop() {
  for (;;) {
    std::unique_ptr<Connection> accepted = transport_.accept();
    if (!accepted) return;  // transport shut down
    std::shared_ptr<Connection> conn(std::move(accepted));
    std::uint64_t client;
    {
      std::lock_guard<std::mutex> lock(readers_mu_);
      client = next_client_++;
      connections_.push_back(conn);
      readers_.emplace_back([this, conn, client] {
        obs::set_current_thread_name("wsp-client-" + std::to_string(client));
        reader_loop(conn, client);
      });
    }
    count("serve.connections");
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn,
                         std::uint64_t client) {
  std::string line;
  while (conn->read_line(line)) {
    if (line.empty()) continue;  // blank keep-alive lines are fine
    if (!handle_line(line, conn, client)) break;
  }
  // EOF (or shutdown verb). The connection object stays alive as long as
  // queued jobs still hold the shared_ptr, so in-flight responses keep
  // flowing; the last owner's destructor closes the channel, handing the
  // client its EOF only after everything was delivered.
}

bool Server::handle_line(const std::string& line,
                         const std::shared_ptr<Connection>& conn,
                         std::uint64_t client) {
  count("serve.requests");
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    // id 0: the request could not be attributed (bad JSON / bad id field).
    count("serve.errors");
    conn->write_line(response_error(0, e.what()));
    return true;
  }

  if (req.verb == "ping") {
    conn->write_line(response_pong(req.id));
    return true;
  }
  if (req.verb == "list") {
    conn->write_line(response_attacks(req.id));
    return true;
  }
  if (req.verb == "metrics") {
    conn->write_line(response_metrics(req.id, metrics().to_json()));
    return true;
  }
  if (req.verb == "shutdown") {
    conn->write_line(response_bye(req.id));
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      shutdown_requested_ = true;
    }
    state_cv_.notify_all();
    return false;  // stop reading this connection
  }

  // verb == "run": validate eagerly so schema errors answer immediately
  // with the runner's message contract, then queue for a worker.
  try {
    runner::validate(req.spec);
  } catch (const std::exception& e) {
    count("serve.errors");
    conn->write_line(response_error(req.id, e.what()));
    return true;
  }
  RunJob job;
  job.id = req.id;
  job.spec = req.spec;
  job.trial_first = req.trial_first;
  job.conn = conn;
  if (!scheduler_.push(client, std::move(job))) {
    count("serve.errors");
    conn->write_line(
        response_error(req.id, "serve: shutting down, request refused"));
  }
  return true;
}

void Server::worker_loop(int worker) {
  (void)worker;
  RunJob job;
  while (scheduler_.pop(job)) {
    try {
      execute_run(job);
    } catch (const std::exception& e) {
      // Harness-level failure (validate() already vetted the spec, so this
      // is unexpected): answer with an error line rather than dropping the
      // request on the floor.
      count("serve.errors");
      job.conn->write_line(response_error(job.id, e.what()));
    }
    job = RunJob{};  // release the Connection shared_ptr between jobs
  }
}

void Server::execute_run(const RunJob& job) {
  const runner::RunSpec& spec = job.spec;
  const fault::FaultPlan plan = fault::FaultPlan::parse(spec.fault_plan);
  const bool verify = spec.verify_reset || !spec.fault_plan.empty();

  // Trials run sequentially inside this worker, in index order, through
  // the exact scheduled-trial path run() fans out — same seed schedule,
  // same fault points, same retry replay — against the shared pool.
  // Streaming them as they finish keeps responses ordered per request.
  runner::RunResult merged;
  merged.spec = spec;
  const std::size_t n =
      spec.trials > 0 ? static_cast<std::size_t>(spec.trials) : 0;
  // trial_first offsets the window, not the schedule: trial i here is
  // bit-identical to trial i of an unsharded run (same trial_seed(base, i),
  // same payload_seed ^ i, same fault points), which is what lets a
  // distributed client merge shards by index into the exact local stream.
  const std::size_t first = static_cast<std::size_t>(job.trial_first);
  for (std::size_t i = first; i < first + n; ++i) {
    runner::ScheduledTrial t =
        runner::run_scheduled_trial(spec, i, plan, verify, &pool_);
    job.conn->write_line(response_trial(job.id, i, t));
    count("serve.trials");
    runner::fold(merged, std::move(t));
  }
  job.conn->write_line(response_done(job.id, merged));
  count("serve.runs");
}

}  // namespace whisper::serve

#include "runner/machine_pool.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "defense/defense.h"
#include "runner/runner.h"

namespace whisper::runner {

std::string machine_key(const RunSpec& spec) {
  char buf[64];
  std::string k = std::to_string(static_cast<int>(spec.model));
  k += '|';
  // The defense fragment is the canonical combo string — one format path
  // (defense::format_list), shared with the JSON writer and the wire.
  k += defense::format_list(spec.defenses);
  k += '|';
  k += spec.docker ? '1' : '0';
  k += '|';
  k += spec.noise.name;
  k += '.';
  k += std::to_string(spec.noise.seed);
  for (const noise::NoiseSource& s : spec.noise.sources) {
    std::snprintf(buf, sizeof buf, ":%d=%a", static_cast<int>(s.kind),
                  s.intensity);
    k += buf;
  }
  return k;
}

MachinePool::MachinePool(std::size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {
  stats_.capacity = capacity_;
}

MachinePool::Lease::Lease(Lease&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      key_(std::move(other.key_)),
      machine_(std::move(other.machine_)) {}

MachinePool::Lease& MachinePool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_ && machine_) pool_->release(std::move(key_), std::move(machine_));
    pool_ = std::exchange(other.pool_, nullptr);
    key_ = std::move(other.key_);
    machine_ = std::move(other.machine_);
  }
  return *this;
}

MachinePool::Lease::~Lease() {
  if (pool_ && machine_) pool_->release(std::move(key_), std::move(machine_));
}

void MachinePool::Lease::quarantine() {
  if (!pool_ || !machine_) return;
  machine_.reset();  // destroy outside the pool lock
  pool_->drop_leased();
  pool_ = nullptr;
}

MachinePool::Lease MachinePool::acquire(const RunSpec& spec,
                                        std::uint64_t seed) {
  std::string key = machine_key(spec);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // 1. An idle machine with this key — most recently released first, so
    //    a hot spec keeps its warm machine (the old LRU's move-to-front).
    auto best = idle_.end();
    for (auto it = idle_.begin(); it != idle_.end(); ++it)
      if (it->key == key &&
          (best == idle_.end() || it->released_at > best->released_at))
        best = it;
    if (best != idle_.end()) {
      std::unique_ptr<os::Machine> m = std::move(best->machine);
      idle_.erase(best);
      ++stats_.reused;
      return Lease(this, std::move(key), std::move(m));
    }
    // 2. Admission: construct while under the cap.
    if (live_ < capacity_) {
      ++live_;
      break;
    }
    // 3. At the cap, but some idle machine of another key can make room:
    //    evict the least-recently-released one.
    if (!idle_.empty()) {
      auto lru = idle_.begin();
      for (auto it = idle_.begin(); it != idle_.end(); ++it)
        if (it->released_at < lru->released_at) lru = it;
      idle_.erase(lru);
      ++stats_.evicted;
      --live_;
      continue;  // retake branch 2
    }
    // 4. Every slot is leased out: block until a release/quarantine.
    ++stats_.waited;
    cv_.wait(lock);
  }
  lock.unlock();
  // Construction is the expensive part — do it outside the lock. A failed
  // construction must give its admission slot back or the pool leaks
  // capacity forever.
  std::unique_ptr<os::Machine> m;
  try {
    m = std::make_unique<os::Machine>(machine_options(spec, seed));
    m->snapshot();
  } catch (...) {
    std::lock_guard<std::mutex> relock(mu_);
    --live_;
    cv_.notify_one();
    throw;
  }
  {
    std::lock_guard<std::mutex> relock(mu_);
    ++stats_.created;
  }
  return Lease(this, std::move(key), std::move(m));
}

void MachinePool::release(std::string key,
                         std::unique_ptr<os::Machine> machine) {
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(IdleMachine{std::move(key), ++stamp_, std::move(machine)});
  cv_.notify_one();
}

void MachinePool::drop_leased() {
  std::lock_guard<std::mutex> lock(mu_);
  --live_;
  ++stats_.quarantined;
  cv_.notify_one();
}

MachinePoolStats MachinePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MachinePoolStats s = stats_;
  s.idle = idle_.size();
  s.in_use = live_ - idle_.size();
  s.capacity = capacity_;
  return s;
}

MachinePool& MachinePool::this_thread() {
  // One pool per thread: the executor's persistent workers (and the
  // jobs==1 inline path) each keep their own, so the runner's hot path
  // never contends on the mutex.
  thread_local MachinePool pool(4);
  return pool;
}

}  // namespace whisper::runner

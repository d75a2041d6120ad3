// Concurrent machine pool — the promoted form of the runner's old
// thread_local machine LRU.
//
// A trial needs an os::Machine in its post-construction, snapshot()ted
// state. Construction costs only the state a machine touches (a shared
// kernel image, sparse cache sets, one page-table entry per mapped range;
// BM_MachineConstruction reads about 35 µs on a 2.1 GHz Xeon core), but
// reset() of a warm machine is cheaper still, and a pooled machine keeps
// its decode cache (docs/ARCHITECTURE.md "Trial lifecycle & reset").
// MachinePool keeps constructed machines alive between trials, keyed by
// their construction inputs minus the per-trial seed (machine_key()), and
// hands them out as RAII leases:
//
//   MachinePool pool(/*capacity=*/8);
//   {
//     MachinePool::Lease lease = pool.acquire(spec, seed);
//     lease.machine().reset(seed);        // now ≡ a fresh Machine(seed)
//     ... run the trial ...
//   }                                      // returned to the pool
//
// Two deployment shapes share this one class:
//   * per-thread — MachinePool::this_thread() is a small thread_local pool
//     (the runner's trial fast path; the mutex is uncontended);
//   * shared — the serve daemon multiplexes every worker onto one pool,
//     which is where the concurrency features earn their keep:
//       - admission control: at most `capacity` machines are ever live
//         (leased + idle); acquire() blocks once every slot is leased,
//       - LRU eviction: a new key evicts the least-recently-released idle
//         machine instead of growing past the cap,
//       - quarantine: Lease::quarantine() destroys a machine whose reset()
//         failed the digest check (PR 5's drift detection) — a quarantined
//         machine is never re-issued; the next acquire() constructs fresh.
//
// Pool identity cannot leak into results: a reset(seed) machine is
// bit-identical to a fresh construction (invariant 8), so *which* machine
// a lease returns — cached, evicted-and-rebuilt, or brand new — is
// unobservable in the trial stream. tests/test_serve.cpp pins the pool
// semantics (cap, fairness, quarantine, stat monotonicity) at unit level.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "os/machine.h"

namespace whisper::runner {

struct RunSpec;

/// Construction inputs that must match for a pooled Machine to be reusable
/// via reset(): everything machine_options() forwards except the per-trial
/// seed (reset() re-derives every seeded stream). Doubles are serialised as
/// hexfloats — exact, so two profiles can never alias to one machine.
[[nodiscard]] std::string machine_key(const RunSpec& spec);

/// Pool accounting. The first five counters are monotonically
/// non-decreasing over the pool's lifetime; the gauges satisfy
/// in_use + idle <= capacity at every observation.
struct MachinePoolStats {
  std::uint64_t created = 0;      // machines constructed (admissions)
  std::uint64_t reused = 0;       // leases served from an idle machine
  std::uint64_t evicted = 0;      // idle machines dropped to admit a new key
  std::uint64_t quarantined = 0;  // machines destroyed via Lease::quarantine
  std::uint64_t waited = 0;       // acquire() calls that had to block
  std::size_t in_use = 0;         // currently leased
  std::size_t idle = 0;           // currently cached
  std::size_t capacity = 0;       // admission cap
};

class MachinePool {
 public:
  /// `capacity` is the admission cap: leased + idle machines never exceed
  /// it (clamped to >= 1).
  explicit MachinePool(std::size_t capacity = 4);

  /// Exclusive RAII hold on one pooled machine. The destructor returns the
  /// machine to the pool's idle list; quarantine() destroys it instead.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    [[nodiscard]] bool valid() const noexcept { return machine_ != nullptr; }
    /// The leased machine — constructed from machine_options(spec, <some
    /// seed>) and snapshot()ted; reset(seed) it before use.
    [[nodiscard]] os::Machine& machine() noexcept { return *machine_; }

    /// Destroy the machine instead of returning it: it failed the
    /// post-reset() digest check (or is otherwise untrusted) and must never
    /// be re-issued. Its capacity slot frees up immediately.
    void quarantine();

   private:
    friend class MachinePool;
    Lease(MachinePool* pool, std::string key,
          std::unique_ptr<os::Machine> machine)
        : pool_(pool), key_(std::move(key)), machine_(std::move(machine)) {}

    MachinePool* pool_ = nullptr;
    std::string key_;
    std::unique_ptr<os::Machine> machine_;
  };

  /// Lease a machine for `spec`. Preference order: an idle machine with the
  /// same key (most recently released first); a new construction when under
  /// the cap; a new construction after evicting the least-recently-released
  /// idle machine. Blocks when every slot is leased out. `seed` only feeds
  /// the construction path — the caller reset(seed)s the machine anyway.
  [[nodiscard]] Lease acquire(const RunSpec& spec, std::uint64_t seed);

  [[nodiscard]] MachinePoolStats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The calling thread's private pool — the runner's per-worker trial fast
  /// path (formerly a bare thread_local LRU). Capacity 4, like the LRU it
  /// replaces; with one lease outstanding at a time it can never block.
  [[nodiscard]] static MachinePool& this_thread();

 private:
  struct IdleMachine {
    std::string key;
    std::uint64_t released_at = 0;  // LRU stamp (monotone)
    std::unique_ptr<os::Machine> machine;
  };

  void release(std::string key, std::unique_ptr<os::Machine> machine);
  void drop_leased();  // quarantine path: free the slot, never re-issue

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<IdleMachine> idle_;
  std::size_t capacity_ = 1;
  std::size_t live_ = 0;  // leased + idle
  std::uint64_t stamp_ = 0;
  MachinePoolStats stats_;
};

}  // namespace whisper::runner

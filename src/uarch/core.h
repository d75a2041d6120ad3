// The out-of-order core model.
//
// A structural pipeline — fetch/decode (DSB vs MITE), allocate, issue to
// ports, execute, in-order retire — sized and parameterised by CpuConfig.
// It models exactly the mechanisms the paper's root-cause analysis
// identifies (§5):
//
//  * Faulting loads defer the fault to retirement; younger instructions
//    execute transiently on (possibly forwarded) data.
//  * A transient conditional branch still resolves in the back end; on
//    misprediction it resteers the front end (CLEAR_RESTEER cycles, MITE
//    refetch) and leaves recovery work that the terminal machine clear must
//    drain — the Whisper ToTE delta for exception windows (trigger=longer).
//  * For assist-terminated windows (MDS) and RSB windows, a dependent
//    transient mispredict initiates the squash early (trigger=shorter).
//  * Machine clears redirect to a TSX abort target or a signal handler,
//    with very different costs — which is why TET-RSB reaches KB/s while
//    TET-MD stays at tens of B/s (§4.1).
//  * Two SMT contexts share the front end; a machine clear on one stalls
//    the other — the §4.4 covert channel.
//
// Architectural state is only changed at retirement (stores are applied
// eagerly but logged and undone on squash), so transient execution is
// invisible at the ISA level — as required for a transient-attack study.
//
// Fast-forward (docs/PERFORMANCE.md): most simulated cycles are structurally
// inert — every in-flight load is still counting down its latency, nothing
// can issue, allocate, fetch or retire. When the core can prove the next
// cycle is inert it computes the exact horizon at which anything changes and
// advances cycle/PMU state in closed form instead of stepping the pipeline.
// The skip is exact by construction: a cycle is only skipped when the
// structural loop would have made no state transition, so fast-forward
// on/off is byte-identical in results, PMU deltas and traces (invariant 10,
// docs/ARCHITECTURE.md).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/isa.h"
#include "isa/program.h"
#include "mem/memory_system.h"
#include "stats/rng.h"
#include "uarch/branch_predictor.h"
#include "uarch/ring.h"
#include "uarch/trace.h"
#include "uarch/config.h"
#include "uarch/pmu.h"

namespace whisper::uarch {

/// Interference hook driven by the simulated clock while the core is
/// running (whisper::noise::NoiseEngine implements it). The return value of
/// on_cycle is an interrupt-handler cost in cycles: non-zero means "an
/// asynchronous interrupt arrives now" — the core squashes all in-flight
/// work on every active thread, resteers to the next unretired instruction,
/// and stalls the front end for the returned cost on top of the
/// machine-clear penalty. Implementations use the hook's cycle argument for
/// their own scheduling (DVFS steps, TLB shootdowns) and must be
/// deterministic in (seed, cycle).
///
/// The structural loop calls on_cycle for every cycle it steps. Across an
/// inert span the core fast-forwards, and there on_cycle is called only on
/// the cycles next_due() names, plus once on the cycle before each one the
/// core jumps to. An implementation must therefore make every call on a
/// cycle before next_due(c) a no-op apart from noting the cycle, so that
/// the one call on the last of them leaves it in the state the per-cycle
/// walk would: noise schedules stay mode-independent.
class CoreInterference {
 public:
  virtual ~CoreInterference() = default;
  [[nodiscard]] virtual std::uint64_t on_cycle(std::uint64_t cycle) = 0;
  /// The first cycle >= `cycle` on which on_cycle may do anything beyond
  /// noting the cycle (~0 for never). The default, `cycle`, makes the core
  /// call on_cycle on every cycle, which is correct for any implementer.
  [[nodiscard]] virtual std::uint64_t next_due(std::uint64_t cycle) const {
    return cycle;
  }
};

/// Initial architectural state for one hardware thread.
struct InitState {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  isa::Flags flags{};
  /// Instruction index to redirect to when a fault retires outside a TSX
  /// region (the signal-handler suppression of the paper's
  /// `transient_begin`); -1 kills the thread.
  int signal_handler = -1;
  bool user_mode = true;
  /// Virtual base address of the code, for i-side TLB modelling.
  std::uint64_t code_base = 0x0000000000400000ull;
};

struct ThreadResult {
  bool halted = false;
  bool killed_by_fault = false;
  std::uint64_t instructions_retired = 0;
  /// Values of retired RDTSC instructions, in program order.
  std::vector<std::uint64_t> tsc;
  std::array<std::uint64_t, isa::kNumRegs> regs{};
};

struct RunResult {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;
  bool cycle_limit_hit = false;
  std::array<ThreadResult, 2> thread;

  [[nodiscard]] std::uint64_t cycles() const noexcept {
    return end_cycle - start_cycle;
  }
  [[nodiscard]] const ThreadResult& t0() const noexcept { return thread[0]; }
};

class Core {
 public:
  Core(const CpuConfig& cfg, mem::MemorySystem& mem);

  /// Run a single program on hardware thread 0 until Halt, kill, or limit.
  RunResult run(const isa::Program& prog, const InitState& init,
                std::uint64_t cycle_limit = 1'000'000);

  /// Run two programs on the SMT sibling threads (§4.4 covert channel).
  RunResult run_smt(const isa::Program& p0, const InitState& i0,
                    const isa::Program& p1, const InitState& i1,
                    std::uint64_t cycle_limit = 10'000'000);

  [[nodiscard]] Pmu& pmu() noexcept { return pmu_; }
  [[nodiscard]] const Pmu& pmu() const noexcept { return pmu_; }
  [[nodiscard]] BranchPredictor& bpu() noexcept { return bpu_; }
  [[nodiscard]] const CpuConfig& config() const noexcept { return cfg_; }
  /// Free-running cycle counter (persists across run() calls, like TSC).
  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }

  /// Forget predictor state (models a context switch / fresh victim).
  void reset_bpu() { bpu_.reset(); }

  /// Return the core to its post-construction state — cycle counter, PMU,
  /// BPU, DSB, SMT contexts and scratch all cleared, the jitter RNG
  /// re-derived exactly as construction with cfg.seed = seed would. The
  /// attached trace/interference hooks, the fast-forward knob and the
  /// decode cache are left untouched (the first two belong to os::Machine
  /// and the runner; the decode cache is a pure function of program content,
  /// so a warm one is indistinguishable from a cold one).
  void reset(std::uint64_t seed);

  /// Attach (or detach with nullptr) a pipeline event log. With none
  /// attached every hook is a branch on a null pointer.
  void set_trace(EventLog* trace) noexcept { trace_ = trace; }

  /// Attach (or detach with nullptr) an interference source. Same contract
  /// as set_trace: with none attached the per-cycle hook is a branch on a
  /// null pointer and the run is cycle-identical to an unhooked core.
  void set_interference(CoreInterference* noise) noexcept { noise_ = noise; }

  /// Enable/disable the fast-forward execution mode (default on). Off means
  /// every cycle steps the full structural pipeline; on is byte-identical
  /// but skips provably inert spans in closed form. Sticky across reset().
  void set_fast_forward(bool on) noexcept { fast_forward_ = on; }
  [[nodiscard]] bool fast_forward() const noexcept { return fast_forward_; }

  /// Decode-cache hit accounting (docs/PERFORMANCE.md). Monotonic for the
  /// lifetime of the Core — reset() does not clear it, because the cache
  /// itself survives reset.
  struct DecodeCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] const DecodeCacheStats& decode_cache_stats() const noexcept {
    return decode_stats_;
  }

  /// Fast-forward accounting (docs/PERFORMANCE.md, "why isn't ff firing").
  /// Host-only and monotonic for the lifetime of the Core like the decode
  /// stats: reset() does not clear it, and nothing here reaches the PMU,
  /// trajectories, the wire or metrics bytes. Every attempt ends either in
  /// a span (at least one cycle skipped) or in exactly one bail-out, named
  /// after the stage that could act on the attempted cycle, so
  /// attempts == spans + the sum of the bail_* counters. The simulated
  /// clock moves only by stepped, skipped or advance()d cycles.
  struct FastForwardStats {
    std::uint64_t attempts = 0;
    std::uint64_t spans = 0;
    std::uint64_t cycles_skipped = 0;
    std::uint64_t cycles_stepped = 0;   // structural cycles, either mode
    std::uint64_t cycles_advanced = 0;  // advance() charges
    std::uint64_t bail_retire = 0;      // ROB head Done
    std::uint64_t bail_complete = 0;    // an Issued entry is due
    std::uint64_t bail_issue = 0;       // an entry could issue
    std::uint64_t bail_alloc = 0;       // the IDQ head could allocate
    std::uint64_t bail_fetch = 0;       // the front end could act
    std::uint64_t bail_noise = 0;       // interrupt on the span's first cycle
    std::uint64_t bail_smt = 0;         // two threads: always structural
  };
  [[nodiscard]] const FastForwardStats& fast_forward_stats() const noexcept {
    return ff_stats_;
  }

  /// Advance the free-running cycle counter without executing anything —
  /// used by the OS layer to charge attacker-side overheads (TLB eviction
  /// buffers, process synchronisation) to simulated time.
  void advance(std::uint64_t cycles) noexcept {
    cycle_ += cycles;
    ff_stats_.cycles_advanced += cycles;
  }

 private:
  enum class EntryState : std::uint8_t { Waiting, Issued, Done };

  /// Handle of an in-flight entry: its seq plus its physical ROB slot,
  /// packed into one word that orders like the seq. The slot makes lookup
  /// O(1); the seq tells a live entry from whatever later reused the slot.
  /// seq 0 = no entry (read architectural state).
  struct Ref {
    static constexpr int kSlotBits = 15;  // ROB capacity limit: 32Ki
    std::uint64_t bits = 0;               // seq << kSlotBits | slot

    [[nodiscard]] static Ref make(std::uint64_t seq, std::uint32_t slot) {
      return {seq << kSlotBits | slot};
    }
    [[nodiscard]] std::uint64_t seq() const noexcept {
      return bits >> kSlotBits;
    }
    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(bits & ((1u << kSlotBits) - 1));
    }
  };

  /// Operand positions of an entry: first/second source register, flags.
  static constexpr int kNumOperands = 3;
  /// End of a consumer list (see RobEntry::first_consumer).
  static constexpr std::uint32_t kNoConsumer = ~std::uint32_t{0};
  /// No slot: end of a completion-wheel bucket list.
  static constexpr std::uint16_t kNoSlot = 0xffff;

  struct RobEntry {
    std::uint64_t seq = 0;
    std::int32_t pc = 0;
    const isa::Instruction* inst = nullptr;  // in the running program
    EntryState state = EntryState::Waiting;
    int uops = 1;

    // Dataflow: the youngest older producer of each operand (first source
    // register, second source register, flags), straight from the rename
    // map when it is still in flight at allocation. A producer that
    // retires later reads the architectural value, exactly like no
    // producer at all.
    std::array<Ref, kNumOperands> prod{};

    // Wakeup. Every live producer links its consumers into an intrusive
    // list threaded through the consumers' operand positions: node
    // slot * kNumOperands + k names operand k of the entry in `slot`, and
    // next_consumer[k] continues the list. Consumers are pushed at
    // allocation (seq order), so each list runs youngest-first and a squash
    // — which also goes youngest-first — unlinks by popping list heads.
    std::uint32_t first_consumer = kNoConsumer;
    std::array<std::uint32_t, kNumOperands> next_consumer{};
    /// Producers that had not issued when this entry allocated and still
    /// have not. At zero the entry's operands forward at `ready_at`.
    std::uint8_t pending_operands = 0;
    std::uint64_t ready_at = 0;

    // Results.
    std::uint64_t result = 0;
    isa::Flags flags_out{};
    isa::Reg dst = isa::Reg::None;  // architectural destination (decode)
    bool writes_reg = false;
    bool writes_flags = false;

    // Rename-map checkpoints: the map values this entry displaced at
    // allocation, restored when the entry is squashed (youngest-first).
    Ref prev_reg_writer{};
    Ref prev_flags_writer{};

    // Timing.
    std::uint64_t complete_at = 0;   // when the entry becomes Done
    std::uint64_t forward_at = 0;    // when dependents may consume `result`
    // Issued: links of its completion-wheel bucket list.
    std::uint16_t wheel_bucket = 0;
    std::uint16_t wheel_prev = kNoSlot;
    std::uint16_t wheel_next = kNoSlot;

    // Memory / fault.
    mem::Fault fault = mem::Fault::None;
    bool data_forwarded = false;
    bool stale_tainted = false;   // dataflow touched stale LFB data (MDS)
    bool early_cleared = false;   // assist squashed early by transient misp.
    bool store_applied = false;
    std::uint64_t store_paddr = 0;
    std::uint64_t store_old = 0;
    std::uint8_t store_size = 8;

    // Branch bookkeeping.
    bool predicted_taken = false;
    std::int32_t predicted_target = -1;
    bool pred_from_rsb = false;
  };

  /// The reorder buffer: a fixed-capacity power-of-two ring of RobEntry,
  /// sized once from CpuConfig::rob_size so an entry never moves while it
  /// is in flight — which is what lets a Ref name it by physical slot.
  /// Alongside the entries it keeps one mark bit per slot, the issue
  /// stage's ready set: Waiting entries whose operands have all forwarded.
  /// Walking the set bits in ring order visits them oldest-first.
  class RobRing {
   public:
    void init(std::size_t min_capacity);

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] RobEntry& operator[](std::size_t i) noexcept {
      return buf_[phys(i)];
    }
    [[nodiscard]] const RobEntry& operator[](std::size_t i) const noexcept {
      return buf_[phys(i)];
    }
    [[nodiscard]] RobEntry& front() noexcept { return buf_[phys(0)]; }
    [[nodiscard]] const RobEntry& front() const noexcept {
      return buf_[phys(0)];
    }
    [[nodiscard]] RobEntry& back() noexcept { return buf_[phys(size_ - 1)]; }
    [[nodiscard]] RobEntry& at_slot(std::uint32_t slot) noexcept {
      return buf_[slot];
    }

    /// Append a default entry; returns the slot it occupies.
    inline std::uint32_t emplace_back();
    void pop_front() noexcept {
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    void pop_back() noexcept { --size_; }
    void clear() noexcept;

    [[nodiscard]] Ref ref(const RobEntry& e) const noexcept {
      return Ref::make(e.seq, slot(e));
    }
    /// Position of a live slot counted from the head (oldest = 0).
    [[nodiscard]] std::size_t index_of(std::uint32_t slot) const noexcept {
      return (slot - head_) & mask_;
    }
    /// The entry `r` names if it is still in flight, else nullptr (retired,
    /// squashed, or no producer at all).
    [[nodiscard]] RobEntry* live(const Ref& r) noexcept {
      if (r.bits == 0 || index_of(r.slot()) >= size_) return nullptr;
      RobEntry& e = buf_[r.slot()];
      return e.seq == r.seq() ? &e : nullptr;
    }

    void mark(const RobEntry& e) noexcept {
      const std::uint32_t s = slot(e);
      const std::uint64_t bit = std::uint64_t{1} << (s & 63);
      if (!(marks_[s >> 6] & bit)) ++marked_;
      marks_[s >> 6] |= bit;
    }
    void unmark(const RobEntry& e) noexcept {
      const std::uint32_t s = slot(e);
      const std::uint64_t bit = std::uint64_t{1} << (s & 63);
      if (marks_[s >> 6] & bit) --marked_;
      marks_[s >> 6] &= ~bit;
    }
    [[nodiscard]] bool none_marked() const noexcept { return marked_ == 0; }
    /// Index (from the head) of the first marked entry at or after `from`,
    /// or size() if none.
    [[nodiscard]] std::size_t next_marked(std::size_t from) const noexcept {
      std::size_t i = from;
      while (marked_ != 0 && i < size_) {
        const std::size_t p = phys(i);
        const std::uint64_t word = marks_[p >> 6] >> (p & 63);
        if (word != 0)
          return std::min(
              i + static_cast<std::size_t>(std::countr_zero(word)), size_);
        i += 64 - (p & 63);
      }
      return size_;
    }

   private:
    [[nodiscard]] std::size_t phys(std::size_t i) const noexcept {
      return (head_ + i) & mask_;
    }
    [[nodiscard]] std::uint32_t slot(const RobEntry& e) const noexcept {
      return static_cast<std::uint32_t>(&e - buf_.data());
    }

    std::vector<RobEntry> buf_;
    std::vector<std::uint64_t> marks_;
    std::size_t marked_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
  };

  /// Issued entries by complete_at: a timing wheel of kBuckets buckets,
  /// each an intrusive doubly-linked list through the entries' wheel_*
  /// links, with an occupancy bit per bucket. An entry waits in the bucket
  /// of its completion cycle — one already due goes to the next cycle's —
  /// so a bucket can also hold entries whole laps of kBuckets cycles later.
  class CompletionWheel {
   public:
    static constexpr std::size_t kBuckets = 256;

    void init() { head_.assign(kBuckets, kNoSlot); }
    void clear() noexcept { occupied_.fill(0); }
    /// File an entry just issued or re-timed on cycle `now`.
    inline void insert(RobRing& rob, RobEntry& e, std::uint64_t now);
    inline void remove(RobRing& rob, const RobEntry& e);
    /// The first cycle from `now` on whose bucket is occupied: the next
    /// completion, or whole laps early (kNever if the wheel is empty).
    [[nodiscard]] inline std::uint64_t next(std::uint64_t now) const noexcept;
    /// Write the entries of now's bucket that are due (complete_at <= now)
    /// to `out`, which has room for a full ROB; returns how many.
    inline std::size_t due(RobRing& rob, std::uint64_t now, Ref* out) const;

   private:
    std::vector<std::uint16_t> head_;  // meaningful where occupied
    std::array<std::uint64_t, kBuckets / 64> occupied_{};
  };

  /// An operand wakeup due at a cycle (ready_at). The queue is a min-heap
  /// on `at` with lazy deletion — an item whose entry was squashed, issued,
  /// or re-timed by a transient shortcut no longer matches and is dropped
  /// when it surfaces.
  struct Timed {
    std::uint64_t at = 0;
    Ref ref;
  };
  class TimedQueue {
   public:
    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] const Timed& top() const noexcept { return heap_.front(); }
    void push(std::uint64_t at, Ref ref);
    void pop();
    void clear() noexcept { heap_.clear(); }

   private:
    std::vector<Timed> heap_;
  };

  /// Ordered pending-seq lists: the non-Done entries of one kind in seq
  /// order. Allocation appends, a squash pops the back, and completion
  /// pops the front while it is Done — so the front is always the oldest
  /// non-Done entry of its kind, and "an older one is pending" is a front()
  /// comparison. Entries completing behind the front stay until it passes
  /// them; they are still in flight, since the front blocks retirement.
  enum PendingKind : std::uint8_t {
    kFencePending,  // LFENCE/MFENCE
    kStorePending,  // stores, including CALL's push
    kClflushPending,
    kJccPending,
    kRetPending,
    kNumPendingKinds  // also: on no list
  };

  /// DSB residency: one bit per fetch block of the running program.
  class BlockSet {
   public:
    [[nodiscard]] bool contains(std::int32_t block) const noexcept {
      const auto b = static_cast<std::size_t>(block);  // negative: absent
      return b / 64 < bits_.size() && ((bits_[b / 64] >> (b % 64)) & 1) != 0;
    }
    void insert(std::int32_t block) {
      const auto b = static_cast<std::size_t>(block);
      if (b / 64 >= bits_.size()) bits_.resize(b / 64 + 1, 0);
      bits_[b / 64] |= std::uint64_t{1} << (b % 64);
    }
    void clear() noexcept { std::fill(bits_.begin(), bits_.end(), 0); }

   private:
    std::vector<std::uint64_t> bits_;
  };

  struct IdqEntry {
    std::int32_t pc = 0;
    const isa::Instruction* inst = nullptr;  // in the running program
    bool predicted_taken = false;
    std::int32_t predicted_target = -1;
    bool pred_from_rsb = false;
    bool from_dsb = true;
    int uops = 1;
  };

  /// Pre-decoded per-instruction fields the pipeline consults on every
  /// fetch/alloc/execute/retire — the opcode row's operand registers
  /// (isa::OpInfo) resolved against the instruction's own fields, its µop
  /// count and flag effect — built once per program and shared across
  /// trials via the decode cache.
  struct DecodedInst {
    isa::Reg src_a = isa::Reg::None;
    isa::Reg src_b = isa::Reg::None;
    isa::Reg dst = isa::Reg::None;
    std::int8_t uops = 1;
    bool writes_flags = false;
  };
  struct DecodedProgram {
    std::vector<DecodedInst> insts;
  };

  struct ThreadCtx {
    bool active = false;
    const isa::Program* prog = nullptr;
    std::shared_ptr<const DecodedProgram> dec;
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    isa::Flags flags{};
    bool user_mode = true;
    int signal_handler = -1;
    std::uint64_t code_base = 0;

    // Front end.
    std::int32_t fetch_pc = 0;
    bool fetch_halted = false;      // saw Halt / unpredicted RET
    std::uint64_t frontend_ready_at = 0;
    bool pending_mite_bubble = false;
    Ring<IdqEntry> idq;
    BlockSet dsb_blocks;
    int force_mite = 0;  // fetch groups forced through MITE after a resteer

    // Back end.
    RobRing rob;
    std::uint64_t next_seq = 1;
    std::uint64_t alloc_stall_until = 0;

    // Rename map: the youngest in-flight writer of each register / of the
    // flags (seq 0 = none). Retirement releases an entry only when the map
    // still points at it; a stale retired Ref left behind reads identically
    // to none (architectural value, ready, untainted).
    std::array<Ref, isa::kNumRegs> reg_writer{};
    Ref flags_writer{};

    // Scheduling state, maintained by the account_* choke points.
    int waiting_count = 0;    // entries Waiting (reservation-station load)
    int issued_loads = 0;     // loads currently Issued (in flight)
    /// Divides still Waiting. Non-zero means divider occupancy can gate an
    /// issue, so the fast-forward horizon must stop at divider_busy_until_
    /// — the census half of the divider's invariant-10 contract.
    int pending_div = 0;
    std::array<Ring<Ref>, kNumPendingKinds> pending;
    /// Oldest non-Done entry (seq 0 = every entry is Done): the same front
    /// as a pending-seq list of all entries, kept as a cursor that
    /// completion advances over the Done entries behind it.
    Ref oldest_unfinished{};
    /// Oldest entry carrying a deferred fault (seq 0 = none). Faults appear
    /// at execution, in any seq order, but leave only by squash — of
    /// everything younger than some entry, or of everything — so the
    /// minimum alone is exact.
    Ref oldest_fault{};
    CompletionWheel completions;
    TimedQueue wakeups;  // operand-complete Waiting entries by ready_at

    // Transient-window bookkeeping.
    bool window_mispredict = false;
    /// seq of the deferred-fault instruction that opened the current
    /// transient window (0 = none). Only the trace hooks read this; it
    /// never influences timing or architectural state.
    std::uint64_t window_open_seq = 0;

    // TSX (set/cleared at retirement).
    bool in_tsx = false;
    std::int32_t tsx_abort_target = -1;

    // Results.
    bool halted = false;
    bool killed = false;
    std::uint64_t retired = 0;
    std::vector<std::uint64_t> tsc_out;
  };

  /// Reset a context to its default-constructed state while recycling the
  /// heap storage of its containers (ROB/IDQ rings, queues, lists, DSB
  /// set, tsc log). run() re-primes a context once per program invocation
  /// — thousands of times per trial — and must not re-grow them each time.
  static void recycle(ThreadCtx& ctx);

  RunResult run_internal(std::uint64_t cycle_limit);

  // Helpers declared `inline` here run every stepped cycle or per
  // instruction; core.cpp's definitions fold into their callers.
  void step_fetch(int t);
  void step_alloc(int t);
  void step_issue();
  void step_complete();
  void step_retire(int t);
  inline void per_cycle_pmu();

  // Next-event queries. Each answers, without changing simulated state,
  // whether its stage can act on the current cycle (a return value of
  // cycle_) and otherwise the earliest cycle it could act absent other
  // events (kNever: only another stage's action can unblock it). The
  // structural steps gate on them and try_fast_forward's horizon is their
  // minimum, so there is one copy of each stage's rules.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  [[nodiscard]] std::uint64_t issue_next(ThreadCtx& ctx);
  struct AllocGate {
    std::uint64_t next = kNever;
    bool stalls = false;  // a blocked cycle charges the resource stalls
  };
  [[nodiscard]] inline AllocGate alloc_next(const ThreadCtx& ctx) const;
  [[nodiscard]] inline std::uint64_t fetch_next(const ThreadCtx& ctx) const;

  /// If the coming cycle is provably inert (single-thread mode only),
  /// advance cycle/PMU state to the exact horizon where the pipeline next
  /// acts and return true. When the noise hook raises an interrupt at some
  /// cycle inside the span, stops there with `pending_interrupt` set so the
  /// caller runs that cycle structurally. Returns false (no side effects)
  /// when the cycle must be stepped structurally.
  bool try_fast_forward(std::uint64_t deadline,
                        std::uint64_t& pending_interrupt);

  /// Every issue gate of one thread on the current cycle except operand
  /// readiness (the ready set) and port capacity (try_issue_entry), read
  /// once per select walk from the pending-seq lists: each bound is "an
  /// older entry of this kind is pending", so admitting an entry is a few
  /// comparisons. Within a walk only an issued divide moves a gate (the
  /// pending lists and the oldest unfinished entry move at allocation,
  /// completion, or a squash younger than the walk's cursor), so step_issue
  /// refreshes divider_busy alone after each issue.
  struct IssueGates {
    std::uint64_t serialise = 0;   // younger entries wait (fences, lfence)
    std::uint64_t unfinished = 0;  // oldest non-Done entry
    std::uint64_t store = 0;       // oldest pending store
    std::uint64_t clflush = 0;     // oldest pending CLFLUSH
    bool divider_busy = false;
    [[nodiscard]] inline bool admits(const RobEntry& e) const;
  };
  [[nodiscard]] inline IssueGates issue_gates(const ThreadCtx& ctx) const;
  /// Index of the oldest ready-set entry at or after `from` that `gates`
  /// admit, or rob.size(): the select step of step_issue and of the issue
  /// query.
  [[nodiscard]] std::size_t first_issuable(ThreadCtx& ctx,
                                           const IssueGates& gates,
                                           std::size_t from);
  /// Move operand wakeups due by now into the ready set.
  inline void promote_wakeups(ThreadCtx& ctx);
  /// When the last of `c`'s (issued) producers forwards.
  [[nodiscard]] inline std::uint64_t operands_forward_at(ThreadCtx& ctx,
                                                         const RobEntry& c);
  /// All of `c`'s producers have issued and its operands forward at `at`:
  /// mark it ready, or queue it for that cycle.
  inline void schedule_wakeup(ThreadCtx& ctx, RobEntry& c, std::uint64_t at);
  /// Walk `p`'s consumers after it executed (`issued`) or after a shortcut
  /// pulled its forward_at earlier.
  void wake_consumers(ThreadCtx& ctx, RobEntry& p, bool issued);
  /// Transient shortcut: `o` now completes at `at` (and forwards no later).
  void retime(ThreadCtx& ctx, RobEntry& o, std::uint64_t at);

  /// Port capacity, then issue and execute. False if a port was full.
  inline bool try_issue_entry(ThreadCtx& ctx, RobEntry& e, int& loads,
                              int& stores, int& branches, int& issued_uops);
  void execute_entry(ThreadCtx& ctx, RobEntry& e);
  void resolve_branch(ThreadCtx& ctx, RobEntry& e, bool actual_taken,
                      std::int32_t actual_target);
  void handle_transient_shortcuts(ThreadCtx& ctx, const RobEntry& branch);
  void machine_clear(int t, RobEntry& faulting);
  /// Asynchronous (timer) interrupt: drain + resteer every active thread
  /// through the machine-clear recovery path, charging `handler_cycles` of
  /// handler time on top of the clear penalty.
  void inject_interrupt(std::uint64_t handler_cycles);
  void squash_younger(ThreadCtx& ctx, std::uint64_t seq);
  void squash_all(ThreadCtx& ctx);
  /// Drop the youngest ROB entry from a wrong path.
  void squash_back(ThreadCtx& ctx);
  void undo_store(const RobEntry& e);
  void redirect_fetch(ThreadCtx& ctx, std::int32_t target);

  /// The pending-seq list an instruction joins (kNumPendingKinds: none).
  static int pending_kind(const isa::Instruction& in);
  // Census/rename bookkeeping choke points (see ThreadCtx).
  static inline void account_alloc(ThreadCtx& ctx, RobEntry& e);
  static inline void account_issue(ThreadCtx& ctx, const RobEntry& e);
  static inline void account_done(ThreadCtx& ctx, const RobEntry& e);
  static inline void account_remove(ThreadCtx& ctx, const RobEntry& e);
  static inline void unrename(ThreadCtx& ctx, const RobEntry& e);

  /// Decoded form of `prog`, via the content-hash-keyed decode cache.
  [[nodiscard]] std::shared_ptr<const DecodedProgram> decoded_for(
      const isa::Program& prog);

  [[nodiscard]] bool older_window_exists(const ThreadCtx& ctx,
                                         std::uint64_t seq) const;
  /// "window" defense gate (speculation_window_limit > 0): allocation
  /// blocked because the configured transient-depth clamp is full.
  [[nodiscard]] bool alloc_window_clamped(const ThreadCtx& ctx) const;
  /// ROB, reservation station or window clamp full: allocation blocked.
  [[nodiscard]] inline bool alloc_blocked(const ThreadCtx& ctx) const;
  /// RESOURCE_STALLS.ANY (and AMD's token stall) for `cycles` blocked
  /// allocation cycles.
  void charge_alloc_stall(std::uint64_t cycles);

  void trace(int thread, TraceEvent event, const RobEntry* e = nullptr,
             std::uint64_t count = 0);
  void trace_raw(int thread, TraceEvent event, std::int32_t pc,
                 isa::Opcode op, std::uint64_t seq);

  CpuConfig cfg_;
  mem::MemorySystem& mem_;
  Pmu pmu_;
  BranchPredictor bpu_;
  stats::Xoshiro256 rng_;
  EventLog* trace_ = nullptr;
  CoreInterference* noise_ = nullptr;
  bool fast_forward_ = true;

  std::uint64_t cycle_ = 0;
  std::uint64_t avx_warm_until_ = 0;  // AVX power-gating state
  /// Non-pipelined divider occupancy: no divide issues before this cycle.
  /// Set at divide issue, it outlives a squash of the divide that set it
  /// (the SpectreRewind residue); cleared only by machine clears,
  /// interrupts and reset(). The issue gates honour it and issue_next()
  /// reports its release, so both execution modes honour the occupancy
  /// identically (invariant 10).
  std::uint64_t divider_busy_until_ = 0;
  std::uint64_t shared_frontend_busy_until_ = 0;
  int nthreads_ = 1;
  std::array<ThreadCtx, 2> ctx_{};

  // The DSB (µop cache) persists across run() calls while the same program
  // occupies the code region — an attack loop probes with a warm DSB, as on
  // real hardware. A different program at the same addresses invalidates it
  // (self-modifying-code nuke).
  std::array<const isa::Program*, 2> last_prog_{};
  std::array<BlockSet, 2> persistent_dsb_{};

  // Per-program decode cache, shared across trials that reuse this machine.
  // Keyed by Program::content_hash() — identity by content, so a trial that
  // rebuilds the same attack program into a fresh object still hits, and a
  // genuinely different program at the same address naturally misses (the
  // content key IS the invalidation). MRU at the front, bounded depth.
  // Survives Core::reset(): decoding is a pure function of program content.
  static constexpr std::size_t kDecodeCacheCap = 8;
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const DecodedProgram>>>
      decode_cache_;
  DecodeCacheStats decode_stats_;
  FastForwardStats ff_stats_;

  // Per-cycle scratch used by per_cycle_pmu().
  int issued_uops_this_cycle_ = 0;
  int alloc_uops_this_cycle_ = 0;
  // Due completions of one thread in seq order (step_complete), ROB-sized.
  std::vector<Ref> due_scratch_;
};

}  // namespace whisper::uarch

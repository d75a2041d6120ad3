#include "uarch/core.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace whisper::uarch {

namespace {

using isa::Instruction;
using isa::Opcode;
using isa::Reg;

isa::Flags alu_flags(std::uint64_t result, bool carry, bool overflow) {
  isa::Flags f;
  f.zf = result == 0;
  f.sf = (result >> 63) & 1;
  f.cf = carry;
  f.of = overflow;
  return f;
}

constexpr std::int32_t kInstrBlock = 8;  // instructions per DSB/fetch block

/// Min-heap order on `at` (the std heap algorithms build max-heaps).
constexpr auto kLater = [](const auto& a, const auto& b) { return a.at > b.at; };

/// seq of the oldest non-Done entry on a pending list (the maximum seq if
/// the list is empty), so "an older one is pending" is `oldest(l) < seq`.
template <typename List>
std::uint64_t oldest(const List& l) {
  return l.empty() ? ~std::uint64_t{0} : l.front().seq();
}

}  // namespace

// ---------------------------------------------------------------------------
// TimedQueue
// ---------------------------------------------------------------------------

void Core::TimedQueue::push(std::uint64_t at, Ref ref) {
  heap_.push_back({at, ref});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
}

void Core::TimedQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  heap_.pop_back();
}

// ---------------------------------------------------------------------------
// CompletionWheel
// ---------------------------------------------------------------------------

void Core::CompletionWheel::insert(RobRing& rob, RobEntry& e,
                                   std::uint64_t now) {
  const std::size_t b =
      std::max(e.complete_at, now + 1) & (kBuckets - 1);
  const std::uint64_t bit = std::uint64_t{1} << (b & 63);
  const auto self = static_cast<std::uint16_t>(rob.ref(e).slot());
  e.wheel_bucket = static_cast<std::uint16_t>(b);
  e.wheel_prev = kNoSlot;
  e.wheel_next = (occupied_[b >> 6] & bit) ? head_[b] : kNoSlot;
  if (e.wheel_next != kNoSlot) rob.at_slot(e.wheel_next).wheel_prev = self;
  head_[b] = self;
  occupied_[b >> 6] |= bit;
}

void Core::CompletionWheel::remove(RobRing& rob, const RobEntry& e) {
  const std::size_t b = e.wheel_bucket;
  if (e.wheel_prev != kNoSlot)
    rob.at_slot(e.wheel_prev).wheel_next = e.wheel_next;
  else
    head_[b] = e.wheel_next;
  if (e.wheel_next != kNoSlot)
    rob.at_slot(e.wheel_next).wheel_prev = e.wheel_prev;
  if (head_[b] == kNoSlot)
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
}

std::uint64_t Core::CompletionWheel::next(std::uint64_t now) const noexcept {
  constexpr std::size_t kWords = kBuckets / 64;
  const std::size_t b = now & (kBuckets - 1);
  std::size_t w = b >> 6;
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (b & 63));
  // One pass over every word, then b's own word again for the buckets
  // below b (the far end of the lap).
  for (std::size_t step = 0; step <= kWords; ++step) {
    if (word != 0) {
      const std::size_t bucket =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      return now + ((bucket - b) & (kBuckets - 1));
    }
    w = (w + 1) % kWords;
    word = occupied_[w];
  }
  return kNever;
}

std::size_t Core::CompletionWheel::due(RobRing& rob, std::uint64_t now,
                                       Ref* out) const {
  const std::size_t b = now & (kBuckets - 1);
  std::size_t n = 0;
  if (!(occupied_[b >> 6] & (std::uint64_t{1} << (b & 63)))) return n;
  for (std::uint16_t s = head_[b]; s != kNoSlot;) {
    RobEntry& e = rob.at_slot(s);
    if (e.complete_at <= now) out[n++] = rob.ref(e);
    s = e.wheel_next;
  }
  return n;
}

// ---------------------------------------------------------------------------
// RobRing
// ---------------------------------------------------------------------------

void Core::RobRing::init(std::size_t min_capacity) {
  // Mark words are 64 slots wide and the ring wraps at its capacity, so a
  // capacity that is a multiple of 64 keeps every word inside one lap.
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(min_capacity, 64));
  if (cap > (std::size_t{1} << Ref::kSlotBits))
    throw std::invalid_argument("uarch::Core: rob_size " +
                                std::to_string(min_capacity) +
                                " exceeds the ROB slot range");
  buf_.assign(cap, RobEntry{});
  marks_.assign(cap / 64, 0);
  head_ = 0;
  size_ = 0;
  mask_ = cap - 1;
}

std::uint32_t Core::RobRing::emplace_back() {
  assert(size_ < buf_.size());
  static const RobEntry kBlank{};
  const std::size_t p = phys(size_);
  buf_[p] = kBlank;
  ++size_;
  return static_cast<std::uint32_t>(p);
}

void Core::RobRing::clear() noexcept {
  head_ = 0;
  size_ = 0;
  if (marked_ != 0) std::fill(marks_.begin(), marks_.end(), 0);
  marked_ = 0;
}

// ---------------------------------------------------------------------------
// Census / rename bookkeeping
// ---------------------------------------------------------------------------

int Core::pending_kind(const Instruction& in) {
  if (in.is_fence()) return kFencePending;
  if (in.is_store()) return kStorePending;
  switch (in.op) {
    case Opcode::Clflush: return kClflushPending;
    case Opcode::Jcc: return kJccPending;
    case Opcode::Ret: return kRetPending;
    default: return kNumPendingKinds;
  }
}

void Core::account_alloc(ThreadCtx& ctx, RobEntry& e) {
  ++ctx.waiting_count;
  if (e.inst->op == Opcode::FdivRR) ++ctx.pending_div;
  const Ref self = ctx.rob.ref(e);
  if (ctx.oldest_unfinished.bits == 0) ctx.oldest_unfinished = self;
  const int kind = pending_kind(*e.inst);
  if (kind != kNumPendingKinds) ctx.pending[kind].push_back(self);
}

void Core::account_issue(ThreadCtx& ctx, const RobEntry& e) {
  --ctx.waiting_count;
  if (e.inst->is_load()) ++ctx.issued_loads;
  if (e.inst->op == Opcode::FdivRR) --ctx.pending_div;
  ctx.rob.unmark(e);
}

void Core::account_done(ThreadCtx& ctx, const RobEntry& e) {
  if (e.inst->is_load()) --ctx.issued_loads;
  // The front of a list is never Done, so only `e` itself can have become
  // a Done front; pop it and any younger entries that completed first and
  // were waiting behind it.
  const auto pop_done = [&ctx, &e](Ring<Ref>& l) {
    if (l.empty() || l.front().seq() != e.seq) return;
    l.pop_front();
    while (!l.empty()) {
      const RobEntry* f = ctx.rob.live(l.front());
      if (f && f->state != EntryState::Done) break;
      l.pop_front();
    }
  };
  const int kind = pending_kind(*e.inst);
  if (kind != kNumPendingKinds) pop_done(ctx.pending[kind]);
  if (ctx.oldest_unfinished.seq() == e.seq) {
    std::size_t i = ctx.rob.index_of(ctx.oldest_unfinished.slot()) + 1;
    while (i < ctx.rob.size() && ctx.rob[i].state == EntryState::Done) ++i;
    ctx.oldest_unfinished =
        i < ctx.rob.size() ? ctx.rob.ref(ctx.rob[i]) : Ref{};
  }
}

void Core::account_remove(ThreadCtx& ctx, const RobEntry& e) {
  switch (e.state) {
    case EntryState::Waiting:
      --ctx.waiting_count;
      if (e.inst->op == Opcode::FdivRR) --ctx.pending_div;
      break;
    case EntryState::Issued:
      if (e.inst->is_load()) --ctx.issued_loads;
      break;
    case EntryState::Done: break;
  }
}

void Core::unrename(ThreadCtx& ctx, const RobEntry& e) {
  // Restore the map values this entry displaced. Squashes pop youngest-
  // first, so the checkpoints unwind in exact reverse-allocation order.
  // A restored value may reference an entry that retired in the meantime;
  // such a stale seq reads identically to 0 everywhere (architectural
  // value, ready, untainted).
  if (e.writes_reg &&
      ctx.reg_writer[static_cast<std::size_t>(e.dst)].seq() == e.seq)
    ctx.reg_writer[static_cast<std::size_t>(e.dst)] = e.prev_reg_writer;
  if (e.writes_flags && ctx.flags_writer.seq() == e.seq)
    ctx.flags_writer = e.prev_flags_writer;
}

// ---------------------------------------------------------------------------
// Decode cache
// ---------------------------------------------------------------------------

std::shared_ptr<const Core::DecodedProgram> Core::decoded_for(
    const isa::Program& prog) {
  const std::uint64_t key = prog.content_hash();
  for (std::size_t i = 0; i < decode_cache_.size(); ++i) {
    if (decode_cache_[i].first == key) {
      ++decode_stats_.hits;
      if (i != 0)
        std::rotate(decode_cache_.begin(), decode_cache_.begin() + i,
                    decode_cache_.begin() + i + 1);
      return decode_cache_.front().second;
    }
  }
  ++decode_stats_.misses;
  auto dp = std::make_shared<DecodedProgram>();
  dp->insts.reserve(prog.code().size());
  for (const Instruction& in : prog.code()) {
    DecodedInst di;
    di.src_a = in.read_a();
    di.src_b = in.read_b();
    di.dst = in.written();
    di.uops = static_cast<std::int8_t>(in.uops());
    di.writes_flags = in.writes_flags();
    dp->insts.push_back(di);
  }
  decode_cache_.insert(decode_cache_.begin(), {key, dp});
  if (decode_cache_.size() > kDecodeCacheCap) decode_cache_.pop_back();
  return dp;
}

Core::Core(const CpuConfig& cfg, mem::MemorySystem& mem)
    : cfg_(cfg), mem_(mem), pmu_(cfg.vendor), bpu_(cfg),
      rng_(cfg.seed ^ 0xc04e5eedULL) {
  mem_.set_counter_window(pmu_.mem_counter_window());
  for (ThreadCtx& ctx : ctx_) {
    ctx.rob.init(static_cast<std::size_t>(std::max(cfg_.rob_size, 1)));
    ctx.completions.init();
  }
  due_scratch_.resize(static_cast<std::size_t>(std::max(cfg_.rob_size, 1)));
}

void Core::recycle(ThreadCtx& ctx) {
  ThreadCtx next;
  const auto take = [](auto& from, auto& to) {
    to = std::move(from);
    to.clear();
  };
  take(ctx.rob, next.rob);
  take(ctx.idq, next.idq);
  take(ctx.dsb_blocks, next.dsb_blocks);
  take(ctx.tsc_out, next.tsc_out);
  take(ctx.completions, next.completions);
  take(ctx.wakeups, next.wakeups);
  for (int k = 0; k < kNumPendingKinds; ++k)
    take(ctx.pending[k], next.pending[k]);
  ctx = std::move(next);
}

void Core::reset(std::uint64_t seed) {
  cfg_.seed = seed;
  cfg_.mem.seed = seed;
  pmu_.reset();
  bpu_.reset();
  rng_ = stats::Xoshiro256(seed ^ 0xc04e5eedULL);
  cycle_ = 0;
  avx_warm_until_ = 0;
  divider_busy_until_ = 0;
  shared_frontend_busy_until_ = 0;
  nthreads_ = 1;
  for (ThreadCtx& ctx : ctx_) recycle(ctx);
  last_prog_ = {};
  for (auto& dsb : persistent_dsb_) dsb.clear();
  issued_uops_this_cycle_ = 0;
  alloc_uops_this_cycle_ = 0;
}

RunResult Core::run(const isa::Program& prog, const InitState& init,
                    std::uint64_t cycle_limit) {
  nthreads_ = 1;
  recycle(ctx_[0]);
  ctx_[0].active = true;
  ctx_[0].prog = &prog;
  ctx_[0].dec = decoded_for(prog);
  ctx_[0].regs = init.regs;
  ctx_[0].flags = init.flags;
  ctx_[0].user_mode = init.user_mode;
  ctx_[0].signal_handler = init.signal_handler;
  ctx_[0].code_base = init.code_base;
  if (last_prog_[0] == &prog) ctx_[0].dsb_blocks = std::move(persistent_dsb_[0]);
  // The sibling context stays clean between single-thread runs; only an
  // SMT run leaves it to recycle.
  if (ctx_[1].active) recycle(ctx_[1]);
  RunResult r = run_internal(cycle_limit);
  last_prog_[0] = &prog;
  persistent_dsb_[0] = std::move(ctx_[0].dsb_blocks);
  last_prog_[1] = nullptr;
  return r;
}

RunResult Core::run_smt(const isa::Program& p0, const InitState& i0,
                        const isa::Program& p1, const InitState& i1,
                        std::uint64_t cycle_limit) {
  nthreads_ = 2;
  for (int t = 0; t < 2; ++t) {
    const isa::Program& p = t == 0 ? p0 : p1;
    const InitState& init = t == 0 ? i0 : i1;
    recycle(ctx_[t]);
    ctx_[t].active = true;
    ctx_[t].prog = &p;
    ctx_[t].dec = decoded_for(p);
    ctx_[t].regs = init.regs;
    ctx_[t].flags = init.flags;
    ctx_[t].user_mode = init.user_mode;
    ctx_[t].signal_handler = init.signal_handler;
    ctx_[t].code_base = init.code_base;
    if (last_prog_[t] == &p) ctx_[t].dsb_blocks = std::move(persistent_dsb_[t]);
  }
  RunResult r = run_internal(cycle_limit);
  for (int t = 0; t < 2; ++t) {
    last_prog_[t] = t == 0 ? &p0 : &p1;
    persistent_dsb_[t] = std::move(ctx_[t].dsb_blocks);
  }
  return r;
}

RunResult Core::run_internal(std::uint64_t cycle_limit) {
  RunResult result;
  result.start_cycle = cycle_;
  const std::uint64_t deadline = cycle_ + cycle_limit;

  auto all_done = [&] {
    for (int t = 0; t < nthreads_; ++t)
      if (ctx_[t].active && !ctx_[t].halted) return false;
    return true;
  };

  // An interrupt raised by the noise hook while fast-forwarding is carried
  // here into the next structural cycle, so the hook fires exactly once on
  // each of its due cycles in both modes.
  std::uint64_t pending_interrupt = 0;
  while (!all_done()) {
    if (cycle_ >= deadline) {
      result.cycle_limit_hit = true;
      break;
    }
    if (pending_interrupt == 0 && try_fast_forward(deadline, pending_interrupt))
      continue;

    issued_uops_this_cycle_ = 0;
    alloc_uops_this_cycle_ = 0;

    if (pending_interrupt != 0) {
      inject_interrupt(pending_interrupt);
      pending_interrupt = 0;
    } else if (noise_) {
      const std::uint64_t handler = noise_->on_cycle(cycle_);
      if (handler != 0) inject_interrupt(handler);
    }

    step_complete();
    for (int t = 0; t < nthreads_; ++t)
      if (ctx_[t].active && !ctx_[t].halted) step_retire(t);
    step_issue();
    // Allocation and fetch bandwidth alternates between SMT siblings.
    const int turn = nthreads_ > 1 ? static_cast<int>(cycle_ % 2) : 0;
    if (ctx_[turn].active && !ctx_[turn].halted) {
      step_alloc(turn);
      step_fetch(turn);
    }
    per_cycle_pmu();
    ++cycle_;
    ++ff_stats_.cycles_stepped;
  }

  result.end_cycle = cycle_;
  for (int t = 0; t < 2; ++t) {
    ThreadResult& tr = result.thread[static_cast<std::size_t>(t)];
    tr.halted = ctx_[t].halted;
    tr.killed_by_fault = ctx_[t].killed;
    tr.instructions_retired = ctx_[t].retired;
    tr.tsc = ctx_[t].tsc_out;
    tr.regs = ctx_[t].regs;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fast-forward
// ---------------------------------------------------------------------------

bool Core::try_fast_forward(std::uint64_t deadline,
                            std::uint64_t& pending_interrupt) {
  if (!fast_forward_) return false;
  FastForwardStats& st = ff_stats_;
  ++st.attempts;
  // SMT runs always step structurally: the siblings' alternating alloc/fetch
  // turns and cross-thread front-end stalls make inert spans rare and the
  // proof obligations heavier, while every covert-channel trial is short.
  if (nthreads_ != 1) {
    ++st.bail_smt;
    return false;
  }
  ThreadCtx& ctx = ctx_[0];
  assert(ctx.active && !ctx.halted);  // run_internal's loop condition

  // The cycle is inert when no stage can act on it; the span ends at the
  // earliest cycle any stage could. Retirement acts as soon as the ROB head
  // is Done (including a deferred fault turning into a machine clear); the
  // other stages answer through the same queries their structural steps
  // gate on.
  if (!ctx.rob.empty() && ctx.rob.front().state == EntryState::Done) {
    ++st.bail_retire;
    return false;
  }
  std::uint64_t horizon = deadline;
  const auto inert = [&](std::uint64_t next, std::uint64_t& bail) {
    if (next <= cycle_) {
      ++bail;
      return false;
    }
    horizon = std::min(horizon, next);
    return true;
  };
  // Cheapest queries first; the bail-out names the first stage found able
  // to act.
  const AllocGate alloc = alloc_next(ctx);
  if (!inert(ctx.completions.next(cycle_), st.bail_complete) ||
      !inert(alloc.next, st.bail_alloc) ||
      !inert(fetch_next(ctx), st.bail_fetch) ||
      !inert(issue_next(ctx), st.bail_issue))
    return false;
  assert(horizon > cycle_);  // run_internal steps nothing at the deadline

  // Every skipped cycle charges the same per-cycle PMU vector the structural
  // loop would: nothing issues, allocates or retires during the span, and
  // the census inputs below are constant across it (nothing transitions).
  const bool amd = cfg_.vendor == Vendor::Amd;
  const bool mem_any = ctx.issued_loads > 0;
  const bool rs_empty = ctx.waiting_count == 0;
  const bool idq_empty_amd = amd && ctx.idq.empty();

  auto charge = [&](std::uint64_t span) {
    pmu_.inc(PmuEvent::CORE_CYCLES, span);
    pmu_.inc(PmuEvent::UOPS_EXECUTED_STALL_CYCLES, span);
    pmu_.inc(PmuEvent::UOPS_EXECUTED_CORE_CYCLES_NONE, span);
    pmu_.inc(PmuEvent::CYCLE_ACTIVITY_STALLS_TOTAL, span);
    pmu_.inc(PmuEvent::UOPS_ISSUED_STALL_CYCLES, span);
    if (mem_any) pmu_.inc(PmuEvent::CYCLE_ACTIVITY_CYCLES_MEM_ANY, span);
    if (rs_empty) pmu_.inc(PmuEvent::RS_EVENTS_EMPTY_CYCLES, span);
    if (idq_empty_amd) pmu_.inc(PmuEvent::DE_DIS_UOP_QUEUE_EMPTY_DI0, span);
    if (alloc.stalls) charge_alloc_stall(span);
  };

  const std::uint64_t start = cycle_;
  if (!noise_) {
    charge(horizon - cycle_);
    cycle_ = horizon;
  } else {
    // With a noise source attached the hook must see the span as the
    // per-cycle walk would (its schedule is stateful, and it may mutate
    // memory state that the pipeline doesn't observe during an inert span).
    // Up to the hook's next due cycle every call only notes the cycle, so
    // one call on the last of them stands for all; a due cycle gets its own
    // call. An interrupt hands the cycle back to the structural loop before
    // it is charged or advanced.
    while (cycle_ < horizon) {
      const std::uint64_t quiet =
          std::min(horizon, noise_->next_due(cycle_));
      if (quiet > cycle_) {
        [[maybe_unused]] const std::uint64_t none =
            noise_->on_cycle(quiet - 1);
        assert(none == 0);
        charge(quiet - cycle_);
        cycle_ = quiet;
        continue;
      }
      const std::uint64_t handler = noise_->on_cycle(cycle_);
      if (handler != 0) {
        pending_interrupt = handler;
        break;
      }
      charge(1);
      ++cycle_;
    }
  }
  if (cycle_ == start) {
    ++st.bail_noise;
  } else {
    ++st.spans;
    st.cycles_skipped += cycle_ - start;
  }
  return true;
}

void Core::trace(int thread, TraceEvent event, const RobEntry* e,
                 std::uint64_t count) {
  if (!trace_) return;
  TraceRecord r;
  r.cycle = cycle_;
  r.thread = thread;
  r.event = event;
  if (e) {
    r.seq = e->seq;
    r.pc = e->pc;
    r.op = e->inst->op;
  } else {
    r.seq = count;
  }
  trace_->record(r);
}

void Core::trace_raw(int thread, TraceEvent event, std::int32_t pc,
                     isa::Opcode op, std::uint64_t seq) {
  if (!trace_) return;
  TraceRecord r;
  r.cycle = cycle_;
  r.thread = thread;
  r.event = event;
  r.seq = seq;
  r.pc = pc;
  r.op = op;
  trace_->record(r);
}

// ---------------------------------------------------------------------------
// Front end
// ---------------------------------------------------------------------------

std::uint64_t Core::fetch_next(const ThreadCtx& ctx) const {
  if (ctx.fetch_halted) return kNever;  // a resteer restarts it
  const std::uint64_t ready =
      std::max(ctx.frontend_ready_at, shared_frontend_busy_until_);
  if (cycle_ < ready) return ready;
  // Past the time gate the front end acts — running off the end of the
  // code, filling the IDQ, or paying the MITE-switch bubble — unless the
  // IDQ is full and no bubble is due, when the fetch loop breaks before
  // touching any state.
  const auto& code = ctx.prog->code();
  if (ctx.fetch_pc < 0 ||
      static_cast<std::size_t>(ctx.fetch_pc) >= code.size() ||
      ctx.idq.size() < static_cast<std::size_t>(cfg_.idq_size))
    return cycle_;
  const bool dsb_cycle = ctx.force_mite == 0 &&
                         ctx.dsb_blocks.contains(ctx.fetch_pc / kInstrBlock);
  return !dsb_cycle && ctx.pending_mite_bubble ? cycle_ : kNever;
}

void Core::step_fetch(int t) {
  ThreadCtx& ctx = ctx_[t];
  if (fetch_next(ctx) > cycle_) return;

  const auto& code = ctx.prog->code();
  if (ctx.fetch_pc < 0 ||
      static_cast<std::size_t>(ctx.fetch_pc) >= code.size()) {
    ctx.fetch_halted = true;  // ran off the end
    return;
  }

  // Decide the delivery path for this cycle from the first block fetched.
  const std::int32_t first_block = ctx.fetch_pc / kInstrBlock;
  // After a resteer the pipeline restarts through the legacy decoder for a
  // couple of fetch groups even if the target lines are DSB-resident —
  // the Fig. 3 DSB->MITE shift.
  const bool dsb_cycle =
      ctx.force_mite == 0 && ctx.dsb_blocks.contains(first_block);
  if (!dsb_cycle && ctx.pending_mite_bubble) {
    // Switching to the legacy decoder costs a fetch bubble; the paper's
    // trigger path pays this after the transient resteer (Fig. 3).
    ctx.pending_mite_bubble = false;
    ctx.frontend_ready_at = cycle_ + cfg_.mite_decode_latency;
    pmu_.inc(PmuEvent::ICACHE_16B_IFDATA_STALL,
             static_cast<std::uint64_t>(cfg_.mite_decode_latency));
    return;
  }

  const int width = dsb_cycle ? cfg_.fetch_width_dsb : cfg_.fetch_width_mite;
  int budget = width;
  int dsb_uops = 0, mite_uops = 0;
  bool ms_dsb = false;

  while (budget > 0) {
    if (ctx.fetch_pc < 0 ||
        static_cast<std::size_t>(ctx.fetch_pc) >= code.size()) {
      ctx.fetch_halted = true;
      break;
    }
    if (ctx.idq.size() >= static_cast<std::size_t>(cfg_.idq_size)) break;
    const std::int32_t block = ctx.fetch_pc / kInstrBlock;
    const bool in_dsb =
        ctx.force_mite == 0 && ctx.dsb_blocks.contains(block);
    if (in_dsb != dsb_cycle) break;  // path switch: next cycle
    const Instruction& inst = code[static_cast<std::size_t>(ctx.fetch_pc)];
    const int uops =
        ctx.dec->insts[static_cast<std::size_t>(ctx.fetch_pc)].uops;
    if (uops > budget) break;

    IdqEntry fe;
    fe.pc = ctx.fetch_pc;
    fe.inst = &inst;
    fe.uops = uops;
    fe.from_dsb = in_dsb;
    if (!in_dsb) ctx.dsb_blocks.insert(block);  // decoded lines fill the DSB

    if (in_dsb) {
      dsb_uops += uops;
      if (uops > 1) {
        ms_dsb = true;
        // Microcode-sequencer uops tracked on the DSB path; a resteer that
        // diverts delivery to MITE lowers this count (Table 3: MS_UOPS
        // drops on trigger while MS_MITE_UOPS rises).
        pmu_.inc(PmuEvent::IDQ_MS_UOPS, static_cast<std::uint64_t>(uops));
      }
    } else {
      mite_uops += uops;
    }

    bool taken = false;
    switch (inst.op) {
      case Opcode::Jcc: {
        BranchPrediction p = bpu_.predict_cond(fe.pc, inst.target);
        fe.predicted_taken = p.taken;
        fe.predicted_target = inst.target;
        if (p.taken) {
          ctx.fetch_pc = inst.target;
          taken = true;
        } else {
          ++ctx.fetch_pc;
        }
        break;
      }
      case Opcode::Jmp:
        fe.predicted_taken = true;
        fe.predicted_target = inst.target;
        ctx.fetch_pc = inst.target;
        taken = true;
        break;
      case Opcode::Call:
        bpu_.rsb_push(fe.pc + 1);
        fe.predicted_taken = true;
        fe.predicted_target = inst.target;
        ctx.fetch_pc = inst.target;
        taken = true;
        break;
      case Opcode::Ret: {
        BranchPrediction p = bpu_.predict_ret();
        fe.pred_from_rsb = true;
        fe.predicted_taken = p.taken;
        fe.predicted_target = p.target;
        if (p.target >= 0) {
          ctx.fetch_pc = p.target;
          taken = true;
        } else {
          // No RSB prediction: the front end stalls until resolution.
          ctx.fetch_halted = true;
        }
        break;
      }
      case Opcode::Halt:
        ctx.fetch_halted = true;
        break;
      default:
        ++ctx.fetch_pc;
        break;
    }

    budget -= uops;
    trace_raw(t, TraceEvent::Fetch, fe.pc, fe.inst->op, 0);
    ctx.idq.push_back(std::move(fe));
    if (taken || ctx.fetch_halted) break;  // one taken branch per cycle
  }

  // Front-end delivery PMU accounting.
  if (dsb_uops > 0) {
    pmu_.inc(PmuEvent::IDQ_DSB_UOPS, static_cast<std::uint64_t>(dsb_uops));
    pmu_.inc(PmuEvent::IDQ_DSB_CYCLES_ANY);
    if (dsb_uops >= cfg_.fetch_width_dsb)
      pmu_.inc(PmuEvent::IDQ_DSB_CYCLES_OK);
    if (ms_dsb) pmu_.inc(PmuEvent::IDQ_MS_DSB_CYCLES);
  }
  if (mite_uops > 0) {
    pmu_.inc(PmuEvent::IDQ_MS_MITE_UOPS,
             static_cast<std::uint64_t>(mite_uops));
    pmu_.inc(PmuEvent::IDQ_ALL_MITE_CYCLES_ANY_UOPS);
    // Falling back to MITE means the next DSB fetch pays the switch bubble.
    ctx.pending_mite_bubble = false;
    if (ctx.force_mite > 0) --ctx.force_mite;
  }
  if (cfg_.vendor == Vendor::Amd && (dsb_uops > 0 || mite_uops > 0)) {
    pmu_.inc(PmuEvent::IC_FW32);
    pmu_.inc(PmuEvent::BP_L1_TLB_FETCH_HIT);
    pmu_.inc(PmuEvent::BP_L1_BTB_CORRECT);  // next-line prediction
  }
}

// ---------------------------------------------------------------------------
// Allocation (rename)
// ---------------------------------------------------------------------------

void Core::charge_alloc_stall(std::uint64_t cycles) {
  pmu_.inc(PmuEvent::RESOURCE_STALLS_ANY, cycles);
  if (cfg_.vendor == Vendor::Amd)
    pmu_.inc(PmuEvent::DE_DIS_DISPATCH_TOKEN_STALLS2_RETIRE_TOKEN_STALL,
             cycles);
}

bool Core::alloc_blocked(const ThreadCtx& ctx) const {
  return ctx.rob.size() >= static_cast<std::size_t>(cfg_.rob_size) ||
         ctx.waiting_count >= cfg_.rs_size ||
         (cfg_.speculation_window_limit > 0 && alloc_window_clamped(ctx));
}

Core::AllocGate Core::alloc_next(const ThreadCtx& ctx) const {
  if (ctx.idq.empty()) return {};  // waits on fetch
  // RAT recovery / machine-clear stall: blocked until it lifts, charging
  // resource stalls while the IDQ holds work.
  if (cycle_ < ctx.alloc_stall_until) return {ctx.alloc_stall_until, true};
  if (ctx.idq.front().uops > cfg_.alloc_width) return {};
  // Blocked on ROB/RS/window tokens: only a retire, issue or completion
  // frees them.
  if (alloc_blocked(ctx)) return {kNever, true};
  return {cycle_, false};
}

void Core::step_alloc(int t) {
  ThreadCtx& ctx = ctx_[t];
  const AllocGate gate = alloc_next(ctx);
  if (gate.next > cycle_) {
    if (gate.stalls) charge_alloc_stall(1);
    return;
  }

  int budget = cfg_.alloc_width;

  while (!ctx.idq.empty() && budget >= ctx.idq.front().uops) {
    if (alloc_blocked(ctx)) {
      charge_alloc_stall(1);
      break;
    }
    const IdqEntry& fe = ctx.idq.front();
    const DecodedInst& di = ctx.dec->insts[static_cast<std::size_t>(fe.pc)];
    const std::uint32_t slot = ctx.rob.emplace_back();
    RobEntry& e = ctx.rob.at_slot(slot);
    e.seq = ctx.next_seq++;
    e.pc = fe.pc;
    e.inst = fe.inst;
    e.uops = fe.uops;
    e.predicted_taken = fe.predicted_taken;
    e.predicted_target = fe.predicted_target;
    e.pred_from_rsb = fe.pred_from_rsb;
    ctx.idq.pop_front();
    e.dst = di.dst;
    e.writes_reg = di.dst != Reg::None;
    e.writes_flags = di.writes_flags;

    budget -= e.uops;
    alloc_uops_this_cycle_ += e.uops;
    pmu_.inc(PmuEvent::UOPS_ISSUED_ANY, static_cast<std::uint64_t>(e.uops));
    trace(t, TraceEvent::Alloc, &e);

    // Producers come straight from the rename map: the youngest in-flight
    // writer of each operand, read before this entry claims the map itself.
    // Each joins that producer's consumer list; the ones that have not
    // issued yet owe this entry a wakeup, the others fix when it can. A
    // writer that already retired is no producer: the operand reads the
    // architectural value.
    std::uint64_t ready_at = 0;
    const auto link = [&](int k, Ref r) {
      RobEntry* p = ctx.rob.live(r);
      if (!p) return;
      e.prod[k] = r;
      e.next_consumer[k] = p->first_consumer;
      p->first_consumer = slot * kNumOperands + static_cast<std::uint32_t>(k);
      if (p->state == EntryState::Waiting)
        ++e.pending_operands;
      else
        ready_at = std::max(ready_at, p->forward_at);
    };
    if (di.src_a != Reg::None)
      link(0, ctx.reg_writer[static_cast<std::size_t>(di.src_a)]);
    if (di.src_b != Reg::None)
      link(1, ctx.reg_writer[static_cast<std::size_t>(di.src_b)]);
    if (e.inst->reads_flags()) link(2, ctx.flags_writer);

    const Ref self = ctx.rob.ref(e);
    if (e.writes_reg) {
      e.prev_reg_writer = ctx.reg_writer[static_cast<std::size_t>(di.dst)];
      ctx.reg_writer[static_cast<std::size_t>(di.dst)] = self;
    }
    if (e.writes_flags) {
      e.prev_flags_writer = ctx.flags_writer;
      ctx.flags_writer = self;
    }
    account_alloc(ctx, e);
    if (e.pending_operands == 0) schedule_wakeup(ctx, e, ready_at);
  }
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

bool Core::alloc_window_clamped(const ThreadCtx& ctx) const {
  // "window" defense (defense::registry()): allocation stops once
  // speculation_window_limit uops sit younger than the oldest unresolved
  // window opener — the same opener set older_window_exists() asks about:
  // a deferred fault, or a Jcc/Ret not yet Done. Only alloc_blocked asks,
  // and only under that defense, so this stays out of line.
  const Ring<Ref>* lists[] = {&ctx.pending[kJccPending],
                              &ctx.pending[kRetPending]};
  const Ref* opener = ctx.oldest_fault.seq() != 0 ? &ctx.oldest_fault : nullptr;
  for (const Ring<Ref>* l : lists)
    if (!l->empty() && (!opener || l->front().seq() < opener->seq()))
      opener = &l->front();
  if (!opener) return false;
  return ctx.rob.size() - (ctx.rob.index_of(opener->slot()) + 1) >=
         static_cast<std::size_t>(cfg_.speculation_window_limit);
}

bool Core::older_window_exists(const ThreadCtx& ctx,
                               std::uint64_t seq) const {
  // A deferred fault or an unresolved Ret opens a window; so does any
  // unresolved older conditional branch — the Spectre-V1 window (bounds
  // check pending on a slow load).
  return (ctx.oldest_fault.seq() != 0 && ctx.oldest_fault.seq() < seq) ||
         oldest(ctx.pending[kRetPending]) < seq ||
         oldest(ctx.pending[kJccPending]) < seq;
}

Core::IssueGates Core::issue_gates(const ThreadCtx& ctx) const {
  IssueGates g;
  // Dispatch serialisation: LFENCE/MFENCE block younger issue. The "lfence"
  // defense (defense::registry()) acts as if the compiler placed an LFENCE
  // after every Jcc — nothing younger than an unresolved conditional branch
  // may issue, while the branch itself still does, so resolution always
  // makes progress.
  g.serialise = oldest(ctx.pending[kFencePending]);
  if (cfg_.lfence_after_branch)
    g.serialise = std::min(g.serialise, oldest(ctx.pending[kJccPending]));
  g.unfinished = ctx.oldest_unfinished.bits != 0
                     ? ctx.oldest_unfinished.seq()
                     : ~std::uint64_t{0};
  g.store = oldest(ctx.pending[kStorePending]);
  g.clflush = oldest(ctx.pending[kClflushPending]);
  // Non-pipelined divider: a divide cannot issue while the unit iterates on
  // an earlier one — regardless of which (possibly squashed) divide latched
  // the occupancy. issue_next() reports its release as a wakeup.
  g.divider_busy = cycle_ < divider_busy_until_;
  return g;
}

bool Core::IssueGates::admits(const RobEntry& e) const {
  if (e.seq > serialise) return false;
  const Instruction& in = *e.inst;
  switch (in.op) {
    case Opcode::FdivRR:
      return !divider_busy;
    // Fences (and RDTSCP's wait-for-older semantics) hold issue until all
    // older entries complete.
    case Opcode::Lfence:
    case Opcode::Mfence:
    case Opcode::Rdtscp:
      return unfinished >= e.seq;
    // Loads (and CLFLUSH) wait for older stores to drain, and loads also
    // wait for older CLFLUSHes — conservative memory disambiguation that
    // gives store→clflush→ret the paper's ordering (Listing 1).
    case Opcode::Clflush:
      return store > e.seq;
    default:
      return !in.is_load() || (store > e.seq && clflush > e.seq);
  }
}

std::size_t Core::first_issuable(ThreadCtx& ctx, const IssueGates& gates,
                                 std::size_t from) {
  // The ready set holds exactly the Waiting entries whose operands have
  // forwarded; walk it oldest-first. Everything younger than the
  // serialising seq is held, so the walk stops there.
  if (ctx.rob.none_marked()) return ctx.rob.size();
  for (std::size_t i = ctx.rob.next_marked(from); i < ctx.rob.size();
       i = ctx.rob.next_marked(i + 1)) {
    const RobEntry& e = ctx.rob[i];
    if (e.seq > gates.serialise) break;
    if (gates.admits(e)) return i;
  }
  return ctx.rob.size();
}

void Core::promote_wakeups(ThreadCtx& ctx) {
  TimedQueue& q = ctx.wakeups;
  while (!q.empty() && q.top().at <= cycle_) {
    const Timed w = q.top();
    q.pop();
    RobEntry* e = ctx.rob.live(w.ref);
    if (e && e->state == EntryState::Waiting && e->pending_operands == 0 &&
        e->ready_at == w.at)
      ctx.rob.mark(*e);
  }
}

std::uint64_t Core::operands_forward_at(ThreadCtx& ctx, const RobEntry& c) {
  // The operand-ready test the scheduler replaces: every live producer has
  // issued and cycle_ >= its forward_at (a retired producer reads the
  // architectural value and is always ready).
  std::uint64_t at = 0;
  for (const Ref& r : c.prod)
    if (const RobEntry* p = ctx.rob.live(r)) at = std::max(at, p->forward_at);
  return at;
}

void Core::schedule_wakeup(ThreadCtx& ctx, RobEntry& c, std::uint64_t at) {
  c.ready_at = at;
  if (at <= cycle_) {
    ctx.rob.mark(c);
  } else {
    ctx.wakeups.push(at, ctx.rob.ref(c));
  }
}

void Core::wake_consumers(ThreadCtx& ctx, RobEntry& p, bool issued) {
  for (std::uint32_t node = p.first_consumer; node != kNoConsumer;) {
    RobEntry& c = ctx.rob.at_slot(node / kNumOperands);
    node = c.next_consumer[node % kNumOperands];
    if (c.state != EntryState::Waiting) continue;
    if (issued) {
      // Every consumer in the list joined while `p` was Waiting.
      assert(c.pending_operands > 0);
      if (--c.pending_operands == 0)
        schedule_wakeup(ctx, c, operands_forward_at(ctx, c));
    } else if (c.pending_operands == 0 && c.ready_at > cycle_) {
      // `p` forwards earlier than it did: re-time a queued wakeup. A
      // consumer already in the ready set stays there. One re-timed to this
      // very cycle is marked behind the select walk (the shortcut fires in
      // the issue stage, at a branch younger than every such consumer), so
      // it first issues next cycle.
      const std::uint64_t at = operands_forward_at(ctx, c);
      if (at < c.ready_at) schedule_wakeup(ctx, c, at);
    }
  }
}

void Core::retime(ThreadCtx& ctx, RobEntry& o, std::uint64_t at) {
  ctx.completions.remove(ctx.rob, o);
  o.complete_at = at;
  ctx.completions.insert(ctx.rob, o, cycle_);
  if (at < o.forward_at) {
    o.forward_at = at;
    wake_consumers(ctx, o, /*issued=*/false);
  }
}

std::uint64_t Core::issue_next(ThreadCtx& ctx) {
  promote_wakeups(ctx);
  if (first_issuable(ctx, issue_gates(ctx), 0) < ctx.rob.size())
    return cycle_;
  // Nothing ready can pass its gates. The gates held by older entries open
  // at their completions (the completion wheel); what remains is the next
  // operand wakeup and, while a divide waits, the divider's release.
  TimedQueue& q = ctx.wakeups;
  while (!q.empty()) {
    const RobEntry* e = ctx.rob.live(q.top().ref);
    if (e && e->state == EntryState::Waiting && e->ready_at == q.top().at)
      break;
    q.pop();
  }
  std::uint64_t next = q.empty() ? kNever : q.top().at;
  if (ctx.pending_div > 0 && divider_busy_until_ > cycle_)
    next = std::min(next, divider_busy_until_);
  return next;
}

void Core::step_issue() {
  int loads = 0, stores = 0, branches = 0;
  int issued = 0;
  for (int t = 0; t < nthreads_; ++t) {
    ThreadCtx& ctx = ctx_[t];
    if (!ctx.active || ctx.halted) continue;
    promote_wakeups(ctx);
    // Select oldest-first from the ready set. Issuing can squash younger
    // entries (a mispredict shrinks the ROB under the cursor) and can wake
    // younger ones for this same cycle (a zero-latency forward); the walk
    // picks up both because it resumes from the ring position. Only an
    // issued divide moves a gate within the walk (IssueGates).
    IssueGates gates = issue_gates(ctx);
    for (std::size_t i = first_issuable(ctx, gates, 0);
         i < ctx.rob.size() && issued < cfg_.issue_width;
         i = first_issuable(ctx, gates, i + 1)) {
      try_issue_entry(ctx, ctx.rob[i], loads, stores, branches, issued);
      gates.divider_busy = cycle_ < divider_busy_until_;
    }
  }
  issued_uops_this_cycle_ = issued;
}

bool Core::try_issue_entry(ThreadCtx& ctx, RobEntry& e, int& loads,
                           int& stores, int& branches, int& issued_uops) {
  const Instruction& in = *e.inst;

  // Port capacity.
  if (in.is_load() && loads >= cfg_.load_ports) return false;
  if (in.is_store() && stores >= cfg_.store_ports) return false;
  if (in.is_branch() && branches >= cfg_.branch_ports) return false;

  // Issue.
  e.state = EntryState::Issued;
  trace(&ctx == &ctx_[0] ? 0 : 1, TraceEvent::Issue, &e);
  issued_uops += e.uops;
  if (in.is_load()) ++loads;
  if (in.is_store()) ++stores;
  if (in.is_branch()) ++branches;
  account_issue(ctx, e);
  execute_entry(ctx, e);
  return true;
}

void Core::execute_entry(ThreadCtx& ctx, RobEntry& e) {
  const Instruction& in = *e.inst;
  const DecodedInst& di = ctx.dec->insts[static_cast<std::size_t>(e.pc)];
  // Operands come from the live producers, or architectural state when a
  // producer is gone (retired) or there is none.
  const RobEntry* pa = ctx.rob.live(e.prod[0]);
  const RobEntry* pb = ctx.rob.live(e.prod[1]);
  const RobEntry* pf = ctx.rob.live(e.prod[2]);
  const auto reg = [&ctx](Reg r) {
    return r == Reg::None ? 0 : ctx.regs[static_cast<std::size_t>(r)];
  };
  const std::uint64_t a = pa && di.src_a != Reg::None ? pa->result
                                                      : reg(di.src_a);
  const std::uint64_t b = pb && di.src_b != Reg::None ? pb->result
                                                      : reg(di.src_b);
  const isa::Flags flags = pf ? pf->flags_out : ctx.flags;
  e.stale_tainted = (pa && pa->stale_tainted) || (pb && pb->stale_tainted) ||
                    (pf && pf->stale_tainted);

  int latency = 1;

  switch (in.op) {
    case Opcode::Nop:
      break;
    case Opcode::MovRI:
      e.result = static_cast<std::uint64_t>(in.imm);
      break;
    case Opcode::MovRR:
      e.result = a;
      break;
    case Opcode::AddRI: {
      const std::uint64_t imm = static_cast<std::uint64_t>(in.imm);
      e.result = a + imm;
      e.flags_out = alu_flags(e.result, e.result < a,
                              ((~(a ^ imm) & (a ^ e.result)) >> 63) != 0);
      break;
    }
    case Opcode::AddRR: {
      e.result = a + b;
      e.flags_out = alu_flags(e.result, e.result < a,
                              ((~(a ^ b) & (a ^ e.result)) >> 63) != 0);
      break;
    }
    case Opcode::SubRI:
    case Opcode::CmpRI: {
      const std::uint64_t imm = static_cast<std::uint64_t>(in.imm);
      const std::uint64_t r = a - imm;
      e.flags_out = alu_flags(r, a < imm,
                              (((a ^ imm) & (a ^ r)) >> 63) != 0);
      e.result = in.op == Opcode::SubRI ? r : a;
      break;
    }
    case Opcode::SubRR:
    case Opcode::CmpRR: {
      const std::uint64_t r = a - b;
      e.flags_out =
          alu_flags(r, a < b, (((a ^ b) & (a ^ r)) >> 63) != 0);
      e.result = in.op == Opcode::SubRR ? r : a;
      break;
    }
    case Opcode::AndRI:
      e.result = a & static_cast<std::uint64_t>(in.imm);
      e.flags_out = alu_flags(e.result, false, false);
      break;
    case Opcode::XorRR:
      e.result = a ^ b;
      e.flags_out = alu_flags(e.result, false, false);
      break;
    case Opcode::ShlRI:
      e.result = a << (in.imm & 63);
      e.flags_out = alu_flags(e.result, false, false);
      break;
    case Opcode::ImulRR:
      e.result = a * b;
      e.flags_out = alu_flags(e.result, false, false);
      latency = 3;
      break;
    case Opcode::FdivRR: {
      // The single divider iterates on the quotient for the full latency;
      // trivial divisors (0/1) early-exit. Occupancy is latched here — at
      // execution — so a transiently issued divide leaves it behind after
      // its squash, exactly like a transient load leaves a cache fill.
      e.result = b == 0 ? ~0ull : a / b;
      e.flags_out = alu_flags(e.result, false, false);
      latency = b <= 1 ? cfg_.div_fast_latency : cfg_.div_latency;
      divider_busy_until_ = cycle_ + static_cast<std::uint64_t>(latency);
      break;
    }
    case Opcode::Neg: {
      e.result = static_cast<std::uint64_t>(-static_cast<std::int64_t>(a));
      e.flags_out = alu_flags(e.result, a != 0, false);
      break;
    }
    case Opcode::Not:
      e.result = ~a;
      break;
    case Opcode::Cmov: {
      // Branchless select: resolves in the data path, never touches the
      // BPU — the §6.2-style rewrite that silences the TET channel.
      e.result = isa::eval_cond(in.cond, flags) ? b : a;
      latency = 2;
      break;
    }
    case Opcode::AvxOp: {
      // Power-up is a persistent side effect of *execution* — transient
      // AVX ops warm the unit even when later squashed (the AVX-timing
      // channel's transmitter).
      latency = 3;
      if (cfg_.avx_power_gating && cycle_ >= avx_warm_until_)
        latency += cfg_.avx_power_up_cycles;
      avx_warm_until_ =
          cycle_ + static_cast<std::uint64_t>(cfg_.avx_warm_cycles);
      break;
    }
    case Opcode::Load:
    case Opcode::LoadByte: {
      mem::AccessRequest req;
      req.vaddr = a + static_cast<std::uint64_t>(in.disp);
      req.type = mem::AccessType::Read;
      req.user_mode = ctx.user_mode;
      req.size = in.op == Opcode::LoadByte ? 1 : 8;
      const mem::AccessResult r = mem_.access(req);
      latency = std::max(1, r.latency);
      e.fault = r.fault;
      e.result = r.data;
      e.data_forwarded = r.data_forwarded;
      if (r.from_lfb_stale) e.stale_tainted = true;
      if (r.fault != mem::Fault::None) {
        // Dependents consume the (transiently forwarded) value early; the
        // fault is only confirmed when the walk/replay finishes.
        e.forward_at = r.data_forwarded
                           ? cycle_ + static_cast<std::uint64_t>(
                                          cfg_.forward_latency)
                           : cycle_ + static_cast<std::uint64_t>(latency);
      }
      break;
    }
    case Opcode::Store:
    case Opcode::StoreByte: {
      mem::AccessRequest req;
      req.vaddr = a + static_cast<std::uint64_t>(in.disp);
      req.type = mem::AccessType::Write;
      req.user_mode = ctx.user_mode;
      req.size = in.op == Opcode::StoreByte ? 1 : 8;
      req.store_value = b;
      const mem::AccessResult r = mem_.access(req);
      latency = std::max(1, r.latency);
      e.fault = r.fault;
      if (r.fault == mem::Fault::None) {
        e.store_applied = true;
        e.store_paddr = r.paddr;
        e.store_old = r.data;
        e.store_size = req.size;
      }
      break;
    }
    case Opcode::Clflush:
      mem_.clflush(a + static_cast<std::uint64_t>(in.disp));
      latency = 4;
      break;
    case Opcode::Prefetch: {
      mem::AccessRequest req;
      req.vaddr = a + static_cast<std::uint64_t>(in.disp);
      req.type = mem::AccessType::Prefetch;
      req.user_mode = ctx.user_mode;
      const mem::AccessResult r = mem_.access(req);
      // PREFETCH never faults architecturally, but its latency exposes the
      // walk time — the EntryBleed-style baseline measures exactly this.
      latency = std::max(1, r.latency);
      break;
    }
    case Opcode::Mfence:
      latency = 4;
      break;
    case Opcode::Lfence:
      latency = 2;
      break;
    case Opcode::Rdtsc:
    case Opcode::Rdtscp:
      e.result = cycle_;
      latency = 12;
      break;
    case Opcode::TsxBegin:
    case Opcode::TsxEnd:
      latency = 2;
      break;
    case Opcode::Jmp:
      break;
    case Opcode::Jcc: {
      const bool taken = isa::eval_cond(in.cond, flags);
      resolve_branch(ctx, e, taken, in.target);
      break;
    }
    case Opcode::Call: {
      // Push the return address; the branch itself was handled at fetch.
      mem::AccessRequest req;
      req.vaddr = a - 8;  // a = RSP
      req.type = mem::AccessType::Write;
      req.user_mode = ctx.user_mode;
      req.size = 8;
      req.store_value = static_cast<std::uint64_t>(e.pc + 1);
      const mem::AccessResult r = mem_.access(req);
      latency = std::max(1, r.latency);
      e.fault = r.fault;
      if (r.fault == mem::Fault::None) {
        e.store_applied = true;
        e.store_paddr = r.paddr;
        e.store_old = r.data;
        e.store_size = 8;
      }
      e.result = a - 8;  // new RSP
      break;
    }
    case Opcode::Ret: {
      mem::AccessRequest req;
      req.vaddr = a;  // a = RSP
      req.type = mem::AccessType::Read;
      req.user_mode = ctx.user_mode;
      req.size = 8;
      const mem::AccessResult r = mem_.access(req);
      latency = std::max(1, r.latency);
      e.fault = r.fault;
      e.result = a + 8;        // new RSP
      e.flags_out = ctx.flags;  // unused
      e.store_old = r.data;  // reuse field: actual return target
      break;
    }
    case Opcode::Halt:
      break;
  }

  e.complete_at = cycle_ + static_cast<std::uint64_t>(latency);
  if (e.forward_at == 0) e.forward_at = e.complete_at;
  ctx.completions.insert(ctx.rob, e, cycle_);

  // A deferred fault opens a transient window: younger instructions now
  // execute on borrowed time until the fault retires (machine clear) or the
  // opener itself is squashed from a wrong path.
  if (e.fault != mem::Fault::None) {
    if (ctx.oldest_fault.seq() == 0 || e.seq < ctx.oldest_fault.seq())
      ctx.oldest_fault = ctx.rob.ref(e);
    if (ctx.window_open_seq == 0) {
      ctx.window_open_seq = e.seq;
      trace(&ctx == &ctx_[0] ? 0 : 1, TraceEvent::WindowOpen, &e);
    }
  }

  // Operands forward at forward_at: wake the consumers. With a zero
  // forward latency one becomes ready this very cycle; being younger, it
  // lies ahead of the select walk in step_issue, which can still issue it
  // this cycle.
  wake_consumers(ctx, e, /*issued=*/true);
}

void Core::resolve_branch(ThreadCtx& ctx, RobEntry& e, bool actual_taken,
                          std::int32_t actual_target) {
  bpu_.update_cond(e.pc, actual_taken);
  if (actual_taken) bpu_.btb_record(e.pc, actual_target);

  const bool mispredicted = actual_taken != e.predicted_taken;
  if (!mispredicted) {
    if (cfg_.vendor == Vendor::Amd) pmu_.inc(PmuEvent::BP_L1_BTB_CORRECT);
    return;
  }

  pmu_.inc(PmuEvent::BR_MISP_EXEC_ALL_BRANCHES);
  trace(&ctx == &ctx_[0] ? 0 : 1, TraceEvent::Mispredict, &e);
  const bool transient = older_window_exists(ctx, e.seq);
  int window_drain = 0;
  if (transient) {
    ctx.window_mispredict = true;
    handle_transient_shortcuts(ctx, e);
  } else {
    pmu_.inc(PmuEvent::BR_MISP_RETIRED_ALL_BRANCHES);
    if (ctx.window_mispredict) {
      // This architectural misprediction ends a speculation window that
      // contained a transient resteer (Spectre-V1 shape): the inner
      // recovery work drains into this resteer, lengthening ToTE exactly
      // as the machine clear does for exception windows.
      window_drain = cfg_.transient_resteer_clear_penalty;
      if (ctx.frontend_ready_at > cycle_)
        window_drain += static_cast<int>(ctx.frontend_ready_at - cycle_);
      ctx.window_mispredict = false;
    }
  }

  // Resteer: squash the wrong path and refetch — this happens even inside a
  // transient window, which is the root cause of the Whisper channel (§5.2.2).
  squash_younger(ctx, e.seq);
  redirect_fetch(ctx, actual_taken ? actual_target : e.pc + 1);
  ctx.frontend_ready_at = std::max(
      ctx.frontend_ready_at,
      cycle_ + static_cast<std::uint64_t>(cfg_.resteer_cycles +
                                          window_drain));
  // RAT recovery keeps allocation stalled for a few cycles after the
  // refetched uops arrive (counted as resource stalls while the IDQ holds
  // work).
  ctx.alloc_stall_until = std::max(
      ctx.alloc_stall_until,
      ctx.frontend_ready_at + static_cast<std::uint64_t>(
                                  cfg_.mite_decode_latency +
                                  cfg_.recovery_extra_cycles));
  pmu_.inc(PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES,
           static_cast<std::uint64_t>(cfg_.resteer_cycles));
  pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES,
           static_cast<std::uint64_t>(cfg_.recovery_extra_cycles));
  pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES_ANY,
           static_cast<std::uint64_t>(cfg_.recovery_extra_cycles));
  // The RAT-token shortage during recovery counts as a resource stall even
  // when a machine clear preempts the refill (Table 3: RESOURCE_STALLS.ANY
  // rises on every triggered scene).
  pmu_.inc(PmuEvent::RESOURCE_STALLS_ANY,
           static_cast<std::uint64_t>(cfg_.recovery_extra_cycles / 2));
}

void Core::handle_transient_shortcuts(ThreadCtx& ctx,
                                      const RobEntry& branch) {
  if (!cfg_.early_clear_on_transient_mispredict) return;

  // MDS/assist window: a mispredict whose dataflow touched stale LFB data
  // initiates the squash early — the faulting load stops replaying its walk
  // and the fault is confirmed immediately (TET-ZBL: trigger => shorter).
  if (branch.stale_tainted) {
    for (std::size_t i = 0; i < ctx.rob.size(); ++i) {
      RobEntry& o = ctx.rob[i];
      if (o.seq >= branch.seq) break;
      if (o.fault == mem::Fault::NotPresent && o.data_forwarded &&
          o.state == EntryState::Issued && o.complete_at > cycle_ + 1) {
        retime(ctx, o, cycle_ + 1);
        o.early_cleared = true;
        break;
      }
    }
  }

  // RSB window: the squash propagates to the pending return, which resolves
  // early instead of waiting for its (slow) target load
  // (TET-RSB: trigger => shorter, §4.3.3).
  for (std::size_t i = 0; i < ctx.rob.size(); ++i) {
    RobEntry& o = ctx.rob[i];
    if (o.seq >= branch.seq) break;
    if (o.inst->op == Opcode::Ret && o.state == EntryState::Issued &&
        o.complete_at > cycle_ + static_cast<std::uint64_t>(
                                     cfg_.early_ret_resolve_cycles)) {
      retime(ctx, o,
             cycle_ + static_cast<std::uint64_t>(cfg_.early_ret_resolve_cycles));
      o.early_cleared = true;
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

void Core::step_complete() {
  for (int t = 0; t < nthreads_; ++t) {
    ThreadCtx& ctx = ctx_[t];
    if (!ctx.active || ctx.halted) continue;
    // Everything due, completed in seq order.
    Ref* const first = due_scratch_.data();
    Ref* const last = first + ctx.completions.due(ctx.rob, cycle_, first);
    if (last - first > 1)
      std::sort(first, last,
                [](const Ref& a, const Ref& b) { return a.bits < b.bits; });
    for (const Ref* due = first; due != last; ++due) {
      RobEntry* done = ctx.rob.live(*due);
      if (!done) continue;  // squashed by an older Ret's resteer just now
      RobEntry& e = *done;
      ctx.completions.remove(ctx.rob, e);
      e.state = EntryState::Done;
      account_done(ctx, e);
      trace(t, TraceEvent::Complete, &e);
      if (e.inst->op == Opcode::Ret && e.fault == mem::Fault::None) {
        // The loaded return target is now known: check the RSB prediction.
        const auto actual =
            static_cast<std::int32_t>(e.store_old);  // stashed target
        if (e.predicted_target == actual) {
          if (cfg_.vendor == Vendor::Amd)
            pmu_.inc(PmuEvent::BP_L1_BTB_CORRECT);
        } else if (e.predicted_target < 0) {
          // No prediction was made; simply steer the stalled front end.
          squash_younger(ctx, e.seq);
          redirect_fetch(ctx, actual);
          ctx.frontend_ready_at = std::max(ctx.frontend_ready_at, cycle_ + 2);
        } else {
          // Spectre-RSB misprediction resolved: squash the transient return
          // path and resteer (no machine clear — hence TET-RSB's speed).
          pmu_.inc(PmuEvent::BR_MISP_EXEC_ALL_BRANCHES);
          pmu_.inc(PmuEvent::BR_MISP_EXEC_INDIRECT);
          squash_younger(ctx, e.seq);
          redirect_fetch(ctx, actual);
          ctx.frontend_ready_at = std::max(
              ctx.frontend_ready_at,
              cycle_ + static_cast<std::uint64_t>(cfg_.resteer_cycles));
          ctx.alloc_stall_until = std::max(
              ctx.alloc_stall_until,
              cycle_ + static_cast<std::uint64_t>(
                           cfg_.resteer_cycles + cfg_.recovery_extra_cycles));
          pmu_.inc(PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES,
                   static_cast<std::uint64_t>(cfg_.resteer_cycles));
          pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES,
                   static_cast<std::uint64_t>(cfg_.recovery_extra_cycles));
          pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES_ANY,
                   static_cast<std::uint64_t>(cfg_.recovery_extra_cycles));
          // The transient window ended by resteer; any inner transient
          // mispredict was consumed by the early resolution.
          ctx.window_mispredict = false;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Retirement
// ---------------------------------------------------------------------------

void Core::step_retire(int t) {
  ThreadCtx& ctx = ctx_[t];
  int budget = cfg_.retire_width;
  while (budget > 0 && !ctx.rob.empty()) {
    RobEntry& head = ctx.rob.front();
    if (head.state != EntryState::Done) break;

    if (head.fault != mem::Fault::None) {
      machine_clear(t, head);
      return;
    }

    // Architectural commit.
    if (head.writes_reg)
      ctx.regs[static_cast<std::size_t>(head.dst)] = head.result;
    if (head.writes_flags) ctx.flags = head.flags_out;

    switch (head.inst->op) {
      case Opcode::Rdtsc:
      case Opcode::Rdtscp:
        ctx.tsc_out.push_back(head.result);
        break;
      case Opcode::TsxBegin:
        ctx.in_tsx = true;
        ctx.tsx_abort_target = head.inst->target;
        break;
      case Opcode::TsxEnd:
        ctx.in_tsx = false;
        break;
      case Opcode::Halt:
        ctx.halted = true;
        break;
      default:
        break;
    }
    pmu_.inc(PmuEvent::UOPS_RETIRED_ALL,
             static_cast<std::uint64_t>(head.uops));
    trace(t, TraceEvent::Retire, &head);
    ++ctx.retired;
    --budget;
    // Release the rename map if this entry is still its registers' youngest
    // writer (otherwise a younger in-flight writer owns the slot).
    if (head.writes_reg &&
        ctx.reg_writer[static_cast<std::size_t>(head.dst)].seq() == head.seq)
      ctx.reg_writer[static_cast<std::size_t>(head.dst)] = {};
    if (head.writes_flags && ctx.flags_writer.seq() == head.seq)
      ctx.flags_writer = {};
    account_remove(ctx, head);
    ctx.rob.pop_front();
    if (ctx.halted) return;
  }
}

void Core::machine_clear(int t, RobEntry& faulting) {
  ThreadCtx& ctx = ctx_[t];
  pmu_.inc(PmuEvent::MACHINE_CLEARS_COUNT);
  trace(t, TraceEvent::MachineClear, &faulting);

  // Where does control go, and what does suppression cost?
  std::int32_t target = -1;
  int base_cost = 0;
  if (ctx.in_tsx) {
    target = ctx.tsx_abort_target;
    base_cost = cfg_.tsx_abort_cycles;
    ctx.in_tsx = false;
    trace(t, TraceEvent::TsxAbort, &faulting);
  } else if (ctx.signal_handler >= 0) {
    target = ctx.signal_handler;
    base_cost = cfg_.signal_dispatch_cycles;
    trace(t, TraceEvent::SignalRedirect, &faulting);
  }

  // The Whisper delta for exception-terminated windows: a transient resteer
  // inside the window leaves recovery work that the clear must drain
  // (trigger => longer ToTE). Early-cleared assist windows already squashed.
  int extra = 0;
  if (ctx.window_mispredict && !faulting.early_cleared) {
    extra = cfg_.transient_resteer_clear_penalty;
    if (ctx.frontend_ready_at > cycle_)
      extra += static_cast<int>(ctx.frontend_ready_at - cycle_);
    // The recovery machinery retro-counts the transient misprediction —
    // reproducing the 0→1 / 0→2 counter jumps of Table 3.
    pmu_.inc(PmuEvent::BR_MISP_EXEC_INDIRECT);
    pmu_.inc(PmuEvent::BR_MISP_EXEC_ALL_BRANCHES);
  }
  ctx.window_mispredict = false;

  // The clear drains the window the deferred fault opened.
  if (ctx.window_open_seq != 0) {
    trace(t, TraceEvent::WindowClose, &faulting);
    ctx.window_open_seq = 0;
  }

  const mem::Fault fault_kind = faulting.fault;
  squash_all(ctx);
  ctx.idq.clear();
  // The pipeline flush drains the execution units with everything else: an
  // in-flight divide is abandoned, so its occupancy does not survive into
  // the post-clear resume (unlike a resteer squash, which leaves it).
  divider_busy_until_ = 0;

  // "flushclear" defense (defense::registry()): the clear also scrubs the
  // microarchitectural residue the transient window deposited — caches per
  // the configured level count, and the line-fill buffer always (its stale
  // slots are the MDS substrate). Clears only fire on the structural path
  // (a Done ROB head forces try_fast_forward to bail), so fast-forward
  // identity is untouched.
  if (cfg_.flush_on_clear) {
    mem_.l1().flush_all();
    if (cfg_.flush_on_clear_levels >= 2) mem_.l2().flush_all();
    if (cfg_.flush_on_clear_levels >= 3) mem_.l3().flush_all();
    mem_.lfb().clear();
  }

  const std::uint64_t stall = static_cast<std::uint64_t>(
      cfg_.machine_clear_cycles + base_cost + extra);
  ctx.frontend_ready_at = cycle_ + stall;
  ctx.alloc_stall_until = cycle_ + stall;
  if (nthreads_ > 1) {
    // A machine clear monopolises the shared front end — the §4.4 SMT
    // covert channel's transmission mechanism.
    shared_frontend_busy_until_ =
        std::max(shared_frontend_busy_until_,
                 cycle_ + static_cast<std::uint64_t>(
                              cfg_.machine_clear_cycles + base_cost / 2));
  }

  pmu_.inc(PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES,
           static_cast<std::uint64_t>(cfg_.resteer_cycles));
  const auto recovery = static_cast<std::uint64_t>(
      cfg_.machine_clear_cycles * 2 / 3 + extra / 2);
  pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES, recovery);
  pmu_.inc(PmuEvent::INT_MISC_RECOVERY_CYCLES_ANY, recovery);

  if (target < 0) {
    ctx.killed = true;
    ctx.halted = true;
    return;
  }

  // In a long (unmapped-address) window the speculative front end runs far
  // ahead into cold code; with the TLBs freshly evicted this shows up as
  // ITLB walk activity — the ITLB_MISSES.WALK_ACTIVE row of Table 3.
  if (fault_kind == mem::Fault::NotPresent)
    mem_.instruction_probe(ctx.code_base +
                           static_cast<std::uint64_t>(target) * 16);

  redirect_fetch(ctx, target);
}

void Core::inject_interrupt(std::uint64_t handler_cycles) {
  for (int t = 0; t < nthreads_; ++t) {
    ThreadCtx& ctx = ctx_[t];
    if (!ctx.active || ctx.halted) continue;

    // Resume at the next unretired instruction. Safe because architectural
    // state only changes at retirement: re-fetching the squashed suffix
    // replays it from scratch. Inside a TSX region an interrupt aborts the
    // transaction, so control resumes at the abort target instead.
    std::int32_t resume = ctx.rob.empty() ? ctx.fetch_pc : ctx.rob.front().pc;
    if (ctx.in_tsx) {
      resume = ctx.tsx_abort_target;
      ctx.in_tsx = false;
      trace_raw(t, TraceEvent::TsxAbort, resume, isa::Opcode::Nop, 0);
    }
    ctx.window_mispredict = false;

    pmu_.inc(PmuEvent::MACHINE_CLEARS_COUNT);
    trace_raw(t, TraceEvent::MachineClear, resume, isa::Opcode::Nop, 0);
    squash_all(ctx);
    ctx.idq.clear();
    divider_busy_until_ = 0;  // the flush drains the divider too

    const std::uint64_t stall =
        cycle_ + handler_cycles +
        static_cast<std::uint64_t>(cfg_.machine_clear_cycles);
    ctx.frontend_ready_at = std::max(ctx.frontend_ready_at, stall);
    ctx.alloc_stall_until = std::max(ctx.alloc_stall_until, stall);
    redirect_fetch(ctx, resume);
  }
  if (nthreads_ > 1)
    shared_frontend_busy_until_ =
        std::max(shared_frontend_busy_until_,
                 cycle_ + static_cast<std::uint64_t>(cfg_.machine_clear_cycles));
}

// ---------------------------------------------------------------------------
// Squash / redirect helpers
// ---------------------------------------------------------------------------

void Core::undo_store(const RobEntry& e) {
  if (!e.store_applied) return;
  if (e.store_size == 1)
    mem_.phys().write8(e.store_paddr,
                       static_cast<std::uint8_t>(e.store_old));
  else
    mem_.phys().write64(e.store_paddr, e.store_old);
}

void Core::squash_back(ThreadCtx& ctx) {
  RobEntry& victim = ctx.rob.back();
  trace(&ctx == &ctx_[0] ? 0 : 1, TraceEvent::Squash, &victim);
  undo_store(victim);
  unrename(ctx, victim);
  // Leave the producers' consumer lists. Squashes run youngest-first, so
  // the victim's nodes sit at the list heads; reverse operand order undoes
  // allocation's pushes when one producer feeds several operands.
  [[maybe_unused]] const std::uint32_t slot = ctx.rob.ref(victim).slot();
  for (int k = kNumOperands - 1; k >= 0; --k) {
    if (RobEntry* p = ctx.rob.live(victim.prod[k])) {
      assert(p->first_consumer ==
             slot * kNumOperands + static_cast<std::uint32_t>(k));
      p->first_consumer = victim.next_consumer[k];
    }
  }
  if (victim.state == EntryState::Issued)
    ctx.completions.remove(ctx.rob, victim);
  account_remove(ctx, victim);
  ctx.rob.unmark(victim);
  ctx.rob.pop_back();
}

void Core::squash_younger(ThreadCtx& ctx, std::uint64_t seq) {
  const int t = &ctx == &ctx_[0] ? 0 : 1;
  std::uint64_t dropped = 0;
  while (!ctx.rob.empty() && ctx.rob.back().seq > seq) {
    squash_back(ctx);
    ++dropped;
  }
  for (Ring<Ref>& l : ctx.pending)
    while (!l.empty() && l.back().seq() > seq) l.pop_back();
  if (ctx.oldest_fault.seq() > seq) ctx.oldest_fault = {};
  if (ctx.oldest_unfinished.seq() > seq) ctx.oldest_unfinished = {};
  ctx.idq.clear();
  if (ctx.window_open_seq > seq) {
    // The window opener itself was on the wrong path: the window ends
    // without a machine clear.
    trace_raw(t, TraceEvent::WindowClose, -1, isa::Opcode::Nop,
              ctx.window_open_seq);
    ctx.window_open_seq = 0;
  }
  if (dropped)
    trace(t, TraceEvent::SquashYounger, nullptr, dropped);
}

void Core::squash_all(ThreadCtx& ctx) {
  // Every entry goes, so beyond the per-entry trace, store undo and rename
  // unwinding the scheduling structures are dropped wholesale.
  const int t = &ctx == &ctx_[0] ? 0 : 1;
  while (!ctx.rob.empty()) {
    RobEntry& victim = ctx.rob.back();
    trace(t, TraceEvent::Squash, &victim);
    undo_store(victim);
    unrename(ctx, victim);
    account_remove(ctx, victim);
    ctx.rob.pop_back();
  }
  ctx.rob.clear();
  for (Ring<Ref>& l : ctx.pending) l.clear();
  ctx.oldest_fault = {};
  ctx.oldest_unfinished = {};
  ctx.completions.clear();
  ctx.wakeups.clear();
  ctx.window_open_seq = 0;
}

void Core::redirect_fetch(ThreadCtx& ctx, std::int32_t target) {
  trace(&ctx == &ctx_[0] ? 0 : 1, TraceEvent::Resteer, nullptr,
        static_cast<std::uint64_t>(target));
  ctx.fetch_pc = target;
  ctx.fetch_halted = false;
  ctx.force_mite = 2;  // pipeline restart goes through the legacy decoder
  const std::int32_t block = target / kInstrBlock;
  if (!ctx.dsb_blocks.contains(block)) ctx.pending_mite_bubble = true;
}

// ---------------------------------------------------------------------------
// Per-cycle PMU accounting
// ---------------------------------------------------------------------------

void Core::per_cycle_pmu() {
  pmu_.inc(PmuEvent::CORE_CYCLES);

  if (issued_uops_this_cycle_ == 0) {
    pmu_.inc(PmuEvent::UOPS_EXECUTED_STALL_CYCLES);
    pmu_.inc(PmuEvent::UOPS_EXECUTED_CORE_CYCLES_NONE);
    pmu_.inc(PmuEvent::CYCLE_ACTIVITY_STALLS_TOTAL);
  }
  if (alloc_uops_this_cycle_ == 0)
    pmu_.inc(PmuEvent::UOPS_ISSUED_STALL_CYCLES);

  bool mem_in_flight = false;
  bool rs_nonempty = false;
  // After step_complete, every Issued entry on a live thread has
  // complete_at > cycle_ (all execute latencies and shortcut targets land
  // at least one cycle out), so the issued_loads census answers
  // CYCLE_ACTIVITY_CYCLES_MEM_ANY without a ROB scan. Two cases still need
  // the exact timestamp scan: a halted thread's frozen in-flight loads
  // (completion no longer runs for it, so they age out of the event as
  // their timestamps pass), and a degenerate early_ret_resolve_cycles < 1
  // (a shortcut could then zero a load's remaining latency mid-cycle).
  const bool shortcut_can_zero = cfg_.early_clear_on_transient_mispredict &&
                                 cfg_.early_ret_resolve_cycles < 1;
  for (int t = 0; t < nthreads_; ++t) {
    const ThreadCtx& ctx = ctx_[t];
    if (!ctx.active) continue;
    if (ctx.waiting_count > 0) rs_nonempty = true;
    if (ctx.issued_loads > 0 && !mem_in_flight) {
      if (!ctx.halted && !shortcut_can_zero) {
        mem_in_flight = true;
      } else {
        for (std::size_t i = 0; i < ctx.rob.size(); ++i) {
          const RobEntry& e = ctx.rob[i];
          if (e.state == EntryState::Issued && e.complete_at > cycle_ &&
              e.inst->is_load()) {
            mem_in_flight = true;
            break;
          }
        }
      }
    }
  }
  if (mem_in_flight) pmu_.inc(PmuEvent::CYCLE_ACTIVITY_CYCLES_MEM_ANY);
  if (!rs_nonempty) pmu_.inc(PmuEvent::RS_EVENTS_EMPTY_CYCLES);

  if (cfg_.vendor == Vendor::Amd && ctx_[0].active && ctx_[0].idq.empty())
    pmu_.inc(PmuEvent::DE_DIS_UOP_QUEUE_EMPTY_DI0);
}

}  // namespace whisper::uarch

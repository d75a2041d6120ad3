#include "mem/memory_system.h"

#include <algorithm>
#include <stdexcept>

namespace whisper::mem {

MemorySystem::MemorySystem(const MemConfig& cfg)
    : cfg_(cfg),
      dtlb_(cfg.dtlb_sets, cfg.dtlb_ways),
      itlb_(cfg.itlb_sets, cfg.itlb_ways),
      stlb_(cfg.stlb_sets, cfg.stlb_ways),
      l1_(cfg.l1_sets, cfg.l1_ways),
      l2_(cfg.l2_sets, cfg.l2_ways),
      l3_(cfg.l3_sets, cfg.l3_ways),
      rng_(cfg.seed ^ 0x3e3ea11dULL) {}

void MemorySystem::set_page_table(const PageTable* pt) { pt_ = pt; }

int MemorySystem::jitter() {
  if (cfg_.jitter_amp <= 0) return 0;
  return static_cast<int>(
      rng_.next_below(static_cast<std::uint64_t>(cfg_.jitter_amp) + 1));
}

int MemorySystem::psc_lookup_and_fill(std::uint64_t vaddr) {
  int best = 0;
  for (std::size_t i = 0; i < kPscEntries; ++i) {
    if (!psc_valid_[i]) continue;
    // Sharing the top k levels means the walker can skip fetching them.
    const int shared = first_divergent_level(vaddr, psc_[i]) - 1;
    best = std::max(best, std::min(shared, 3));
  }
  psc_[psc_next_] = vaddr;
  psc_valid_[psc_next_] = true;
  psc_next_ = (psc_next_ + 1) % kPscEntries;
  return best;
}

MemorySystem::Translation MemorySystem::translate(std::uint64_t vaddr,
                                                  AccessType type,
                                                  bool user_mode) {
  Translation t;
  if (!pt_) throw std::logic_error("MemorySystem: no page table installed");

  Tlb& first = (type == AccessType::Fetch) ? itlb_ : dtlb_;
  auto classify = [&](const PteFlags& flags) {
    if (user_mode && !flags.user) return Fault::Permission;
    if (type == AccessType::Write && !flags.writable) return Fault::Protection;
    return Fault::None;
  };

  if (const TlbEntry* hit = first.lookup_ref(vaddr)) {
    t.tlb_hit = true;
    const int shift = hit->size == PageSize::k4K ? 12 : 21;
    t.paddr = (hit->pfn << shift) | (vaddr & ((1ull << shift) - 1));
    t.fault = classify(hit->flags);
    return t;
  }
  if (const TlbEntry* hit = stlb_.lookup_ref(vaddr)) {
    t.latency += cfg_.stlb_latency;
    count(MemCounter::kStlbHits);
    const int shift = hit->size == PageSize::k4K ? 12 : 21;
    t.paddr = (hit->pfn << shift) | (vaddr & ((1ull << shift) - 1));
    t.fault = classify(hit->flags);
    // Promote to the first-level TLB. `hit` points into the STLB, which
    // first.insert never touches, so the read below stays valid.
    const std::uint64_t page_mask = ~((1ull << shift) - 1);
    first.insert(vaddr, t.paddr & page_mask, hit->flags, hit->size);
    return t;
  }

  const int psc_hits = psc_lookup_and_fill(vaddr);
  const WalkResult walk = pt_->walk(vaddr, psc_hits);
  t.walk = walk;

  switch (walk.status) {
    case WalkStatus::Ok: {
      t.walks = 1;
      t.walk_cycles = walk.levels_fetched * cfg_.walk_level_cycles + jitter();
      t.paddr = walk.paddr;
      t.fault = classify(walk.flags);
      // Intel policy: a completed walk installs a translation even when the
      // access itself faults on permissions — the TET-KASLR signal.
      const bool fill =
          t.fault == Fault::None ||
          ((t.fault == Fault::Permission || t.fault == Fault::Protection) &&
           cfg_.tlb_fill_on_permission_fault);
      if (fill) {
        const int shift = walk.page_size == PageSize::k4K ? 12 : 21;
        const std::uint64_t page_mask = ~((1ull << shift) - 1);
        first.insert(vaddr, walk.paddr & page_mask, walk.flags,
                     walk.page_size);
        stlb_.insert(vaddr, walk.paddr & page_mask, walk.flags,
                     walk.page_size);
        t.tlb_filled = true;
      }
      break;
    }
    case WalkStatus::NotPresent: {
      // The load is replayed and each replay walks again — Table 3 shows
      // DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK == 2 for unmapped probes, and a
      // much longer WALK_ACTIVE window.
      t.walks = std::max(1, cfg_.not_present_replays);
      t.walk_cycles = 0;
      for (int i = 0; i < t.walks; ++i)
        t.walk_cycles +=
            walk.levels_fetched * cfg_.walk_level_cycles + jitter();
      t.fault = Fault::NotPresent;
      break;
    }
    case WalkStatus::ReservedBit: {
      // FLARE dummy leaf: full-depth walk completes once, access faults,
      // and no TLB entry is installed.
      t.walks = 1;
      t.walk_cycles = walk.levels_fetched * cfg_.walk_level_cycles + jitter();
      t.fault = Fault::ReservedBit;
      break;
    }
  }
  t.latency += t.walk_cycles;
  if (type == AccessType::Fetch) {
    count(MemCounter::kItlbWalkCycles,
          static_cast<std::uint64_t>(t.walk_cycles));
  } else {
    count(MemCounter::kDtlbMissWalks, static_cast<std::uint64_t>(t.walks));
    count(MemCounter::kDtlbWalkCycles,
          static_cast<std::uint64_t>(t.walk_cycles));
  }
  return t;
}

int MemorySystem::cache_access(std::uint64_t paddr, AccessResult& out) {
  if (l1_.access(paddr)) {
    out.cache_level = 1;
    count(MemCounter::kL1Hit);
    return cfg_.l1_latency;
  }
  if (l2_.access(paddr)) {
    out.cache_level = 2;
    count(MemCounter::kL2Hit);
    l1_.fill(paddr);
    return cfg_.l2_latency;
  }
  if (l3_.access(paddr)) {
    out.cache_level = 3;
    count(MemCounter::kL3Hit);
    l2_.fill(paddr);
    l1_.fill(paddr);
    return cfg_.l3_latency;
  }
  out.cache_level = 4;
  count(MemCounter::kDram);
  l3_.fill(paddr);
  l2_.fill(paddr);
  l1_.fill(paddr);
  // A DRAM fill moves the line through the fill buffers; record its data so
  // MDS-style sampling sees realistic in-flight bytes. A line never
  // straddles a frame, so the copy is one frame lookup and one memcpy.
  const std::uint64_t line_base = paddr & ~(Cache::kLineBytes - 1);
  std::uint8_t line[LineFillBuffer::kLineBytes];
  phys_.read_into(line_base, line);
  lfb_.record(line_base, line);
  return cfg_.dram_latency + jitter();
}

AccessResult MemorySystem::access(const AccessRequest& req) {
  AccessResult out = access_impl(req);
  if (noise_) {
    // Interference rides on top of the resolved access; a negative delta
    // (DVFS downclock) can shorten it but never below a single cycle.
    out.latency = std::max(1, out.latency + noise_->on_access(req, out));
  }
  return out;
}

AccessResult MemorySystem::access_impl(const AccessRequest& req) {
  AccessResult out;
  Translation t = translate(req.vaddr, req.type, req.user_mode);
  out.latency = t.latency;
  out.fault = t.fault;
  out.paddr = t.paddr;
  out.tlb_hit = t.tlb_hit;
  out.tlb_filled = t.tlb_filled;
  out.walks = t.walks;
  out.walk_cycles = t.walk_cycles;

  if (t.fault != Fault::None) {
    // The permission/presence check rides the full load pipeline after the
    // translation step — this keeps the transient window open even on a TLB
    // hit, and keeps walk time visible on top of it (TET-KASLR's
    // double-probe separates a TLB hit from a PSC-accelerated walk).
    out.latency += cfg_.fault_confirm_min_cycles;
    switch (t.fault) {
      case Fault::Permission:
      case Fault::Protection:
        if (cfg_.meltdown_forwards_data && req.type != AccessType::Prefetch) {
          // Pre-fix behaviour: the data phase races ahead of the permission
          // check and forwards the real bytes to dependents.
          out.latency += cache_access(t.paddr, out);
          out.data = req.size == 1 ? phys_.read8(t.paddr)
                                   : phys_.read64(t.paddr);
          out.data_forwarded = true;
        }
        break;
      case Fault::NotPresent:
        if (cfg_.lfb_forwards_stale && req.type == AccessType::Read) {
          // Zombieload: the assisted load samples a stale LFB byte.
          const std::size_t off = req.vaddr % LineFillBuffer::kLineBytes;
          if (req.size == 1) {
            if (auto b = lfb_.stale_byte(off)) {
              out.data = *b;
              out.data_forwarded = true;
              out.from_lfb_stale = true;
            }
          } else if (auto q = lfb_.stale_qword(off)) {
            out.data = *q;
            out.data_forwarded = true;
            out.from_lfb_stale = true;
          }
        }
        break;
      default:
        break;
    }
    return out;
  }

  // Non-faulting access.
  if (req.type == AccessType::Prefetch) {
    // The prefetch retires once the translation is known; the line fill
    // proceeds in the background. Its timing therefore exposes the walk —
    // the EntryBleed-style baseline measures exactly this.
    (void)cache_access(t.paddr, out);
    out.latency += 2;
    return out;
  }
  out.latency += cache_access(t.paddr, out);
  if (req.type == AccessType::Write) {
    // Returns the previous value so the pipeline can keep an undo log for
    // squashed (transient) stores.
    if (req.size == 1) {
      out.data = phys_.read8(t.paddr);
      phys_.write8(t.paddr, static_cast<std::uint8_t>(req.store_value));
    } else {
      out.data = phys_.read64(t.paddr);
      phys_.write64(t.paddr, req.store_value);
    }
  } else {
    out.data = req.size == 1 ? phys_.read8(t.paddr) : phys_.read64(t.paddr);
  }
  return out;
}

int MemorySystem::instruction_probe(std::uint64_t vaddr) {
  Translation t = translate(vaddr, AccessType::Fetch, /*user_mode=*/true);
  if (t.fault == Fault::None && !t.tlb_hit && t.walk.status == WalkStatus::Ok)
    itlb_.insert(vaddr, t.paddr & ~0xfffull, t.walk.flags, t.walk.page_size);
  return t.latency;
}

void MemorySystem::clflush(std::uint64_t vaddr) {
  if (!pt_) return;
  if (auto r = pt_->lookup(vaddr)) {
    l1_.flush_line(r->paddr);
    l2_.flush_line(r->paddr);
    l3_.flush_line(r->paddr);
  }
}

void MemorySystem::flush_tlbs() {
  dtlb_.flush_all();
  itlb_.flush_all();
  stlb_.flush_all();
  for (bool& v : psc_valid_) v = false;
}

void MemorySystem::flush_tlbs_non_global() {
  dtlb_.flush_non_global();
  itlb_.flush_non_global();
  stlb_.flush_non_global();
  for (bool& v : psc_valid_) v = false;
}

void MemorySystem::invalidate_tlb_page(std::uint64_t vaddr) {
  dtlb_.invalidate_page(vaddr);
  itlb_.invalidate_page(vaddr);
  stlb_.invalidate_page(vaddr);
}

std::uint64_t MemorySystem::translate_or_throw(std::uint64_t vaddr) const {
  if (!pt_) throw std::logic_error("MemorySystem: no page table installed");
  auto r = pt_->lookup(vaddr);
  if (!r) throw std::runtime_error("MemorySystem: address not mapped");
  return r->paddr;
}

std::uint64_t MemorySystem::debug_read64(std::uint64_t vaddr) const {
  return phys_.read64(translate_or_throw(vaddr));
}
std::uint8_t MemorySystem::debug_read8(std::uint64_t vaddr) const {
  return phys_.read8(translate_or_throw(vaddr));
}
void MemorySystem::debug_write64(std::uint64_t vaddr, std::uint64_t value) {
  phys_.write64(translate_or_throw(vaddr), value);
}
void MemorySystem::debug_write8(std::uint64_t vaddr, std::uint8_t value) {
  phys_.write8(translate_or_throw(vaddr), value);
}

void MemorySystem::victim_touch(std::uint64_t paddr, std::uint64_t value,
                                std::size_t len) {
  lfb_.record_value(paddr, value, len);
}

void MemorySystem::snapshot() {
  phys_.snapshot();
  dtlb_.snapshot();
  itlb_.snapshot();
  stlb_.snapshot();
  l1_.snapshot();
  l2_.snapshot();
  l3_.snapshot();
  lfb_.snapshot();
  std::copy(std::begin(psc_), std::end(psc_), std::begin(psc_base_));
  std::copy(std::begin(psc_valid_), std::end(psc_valid_),
            std::begin(psc_valid_base_));
  psc_next_base_ = psc_next_;
  has_baseline_ = true;
}

void MemorySystem::reset(std::uint64_t seed) {
  if (!has_baseline_)
    throw std::logic_error("MemorySystem::reset: no snapshot taken");
  phys_.reset();
  dtlb_.reset();
  itlb_.reset();
  stlb_.reset();
  l1_.reset();
  l2_.reset();
  l3_.reset();
  lfb_.reset();
  std::copy(std::begin(psc_base_), std::end(psc_base_), std::begin(psc_));
  std::copy(std::begin(psc_valid_base_), std::end(psc_valid_base_),
            std::begin(psc_valid_));
  psc_next_ = psc_next_base_;
  // Re-derive the jitter stream exactly as construction would: the ctor
  // consumes no randomness, so a fresh seed here is fresh-machine-identical.
  cfg_.seed = seed;
  rng_ = stats::Xoshiro256(seed ^ 0x3e3ea11dULL);
}

}  // namespace whisper::mem

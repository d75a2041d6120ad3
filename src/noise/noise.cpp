#include "noise/noise.h"

#include <algorithm>
#include <cmath>

namespace whisper::noise {

namespace {

constexpr double clamp01(double v) {
  return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
}

/// Interval scaling: intensity 0 → `slow`, intensity 1 → `fast`.
constexpr std::uint64_t lerp_interval(std::uint64_t slow, std::uint64_t fast,
                                      double intensity) {
  return slow - static_cast<std::uint64_t>(
                    static_cast<double>(slow - fast) * intensity);
}

// Source calibration (cycles). The slow end is chosen so intensity ~0
// profiles barely brush a leak_byte (a few hundred k cycles); the fast end
// is what pushes fixed-batch decoding past the acceptance error rates.
constexpr std::uint64_t kTimerPeriodSlow = 400'000, kTimerPeriodFast = 20'000;
constexpr std::uint64_t kDvfsPeriodSlow = 300'000, kDvfsPeriodFast = 30'000;
constexpr std::uint64_t kTlbPeriodSlow = 2'000'000, kTlbPeriodFast = 100'000;
constexpr std::uint64_t kBurstGapSlow = 30'000, kBurstGapFast = 3'000;
constexpr std::uint64_t kBurstLenShort = 1'000, kBurstLenLong = 6'000;
constexpr std::uint64_t kTimerHandlerCycles = 2'500;

/// Physical region the simulated sibling's fill traffic "belongs" to —
/// anywhere outside the attacker/victim working set works; only the line
/// offsets matter for LFB sampling.
constexpr std::uint64_t kSiblingPhysBase = 0x7f000000ull;

}  // namespace

const char* to_string(NoiseKind k) {
  switch (k) {
    case NoiseKind::SmtContention: return "smt-contention";
    case NoiseKind::TimerInterrupt: return "timer-interrupt";
    case NoiseKind::Dvfs: return "dvfs";
    case NoiseKind::Prefetcher: return "prefetcher";
    case NoiseKind::TlbShootdown: return "tlb-shootdown";
  }
  return "?";
}

double NoiseProfile::intensity(NoiseKind kind) const noexcept {
  for (const NoiseSource& s : sources)
    if (s.kind == kind) return clamp01(s.intensity);
  return 0.0;
}

bool NoiseProfile::enabled() const noexcept {
  for (const NoiseSource& s : sources)
    if (s.intensity > 0.0) return true;
  return false;
}

NoiseProfile NoiseProfile::scaled(double factor) const {
  NoiseProfile out = *this;
  for (NoiseSource& s : out.sources)
    s.intensity = clamp01(s.intensity * factor);
  return out;
}

NoiseProfile NoiseProfile::off() { return NoiseProfile{}; }

NoiseProfile NoiseProfile::quiet() {
  return NoiseProfile{
      .name = "quiet",
      .sources = {{NoiseKind::TimerInterrupt, 0.1},
                  {NoiseKind::Prefetcher, 0.1}}};
}

NoiseProfile NoiseProfile::desktop() {
  return NoiseProfile{
      .name = "desktop",
      .sources = {{NoiseKind::SmtContention, 0.5},
                  {NoiseKind::TimerInterrupt, 0.4},
                  {NoiseKind::Dvfs, 0.4},
                  {NoiseKind::Prefetcher, 0.3},
                  {NoiseKind::TlbShootdown, 0.2}}};
}

NoiseProfile NoiseProfile::noisy_server() {
  return NoiseProfile{
      .name = "noisy-server",
      .sources = {{NoiseKind::SmtContention, 0.9},
                  {NoiseKind::TimerInterrupt, 0.8},
                  {NoiseKind::Dvfs, 0.6},
                  {NoiseKind::Prefetcher, 0.7},
                  {NoiseKind::TlbShootdown, 0.6}}};
}

std::optional<NoiseProfile> NoiseProfile::by_name(std::string_view name) {
  if (name == "off") return off();
  if (name == "quiet") return quiet();
  if (name == "desktop") return desktop();
  if (name == "noisy-server") return noisy_server();
  return std::nullopt;
}

const std::vector<std::string>& NoiseProfile::preset_names() {
  static const std::vector<std::string> names = {"off", "quiet", "desktop",
                                                 "noisy-server"};
  return names;
}

NoiseEngine::NoiseEngine(NoiseProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)),
      rng_(seed ^ profile_.seed),
      smt_i_(profile_.intensity(NoiseKind::SmtContention)),
      timer_i_(profile_.intensity(NoiseKind::TimerInterrupt)),
      dvfs_i_(profile_.intensity(NoiseKind::Dvfs)),
      prefetch_i_(profile_.intensity(NoiseKind::Prefetcher)),
      tlb_i_(profile_.intensity(NoiseKind::TlbShootdown)) {}

void NoiseEngine::reset(std::uint64_t seed) {
  rng_ = stats::Xoshiro256(seed ^ profile_.seed);
  stats_ = NoiseStats{};
  last_cycle_ = 0;
  timer_next_ = 0;
  dvfs_next_ = 0;
  tlb_next_ = 0;
  burst_start_ = 0;
  burst_end_ = 0;
  dvfs_scale_ = 1.0;
}

std::uint64_t NoiseEngine::jittered(std::uint64_t mean) {
  // mean ± 25%, uniform.
  const std::uint64_t quarter = mean / 4;
  return mean - quarter + rng_.next_below(2 * quarter + 1);
}

std::uint64_t NoiseEngine::on_cycle(std::uint64_t cycle) {
  last_cycle_ = cycle;

  if (dvfs_i_ > 0.0) {
    if (dvfs_next_ == 0) {
      dvfs_next_ =
          cycle + jittered(lerp_interval(kDvfsPeriodSlow, kDvfsPeriodFast,
                                         dvfs_i_));
    } else if (cycle >= dvfs_next_) {
      // Quantized frequency step: the governor moves the core clock up to
      // ±40% (at intensity 1) of nominal in 5% notches. ToTE is dominated
      // by fixed-time DRAM/walk latency, so the core-cycle count of a probe
      // rescales by this factor until the next step.
      const auto notches =
          static_cast<std::uint64_t>(std::lround(8.0 * dvfs_i_));
      const std::int64_t step =
          static_cast<std::int64_t>(rng_.next_below(2 * notches + 1)) -
          static_cast<std::int64_t>(notches);
      dvfs_scale_ = 1.0 + 0.05 * static_cast<double>(step);
      dvfs_next_ =
          cycle + jittered(lerp_interval(kDvfsPeriodSlow, kDvfsPeriodFast,
                                         dvfs_i_));
      ++stats_.dvfs_steps;
    }
  }

  if (tlb_i_ > 0.0) {
    if (tlb_next_ == 0) {
      tlb_next_ = cycle + jittered(lerp_interval(kTlbPeriodSlow,
                                                 kTlbPeriodFast, tlb_i_));
    } else if (cycle >= tlb_next_) {
      if (mem_) mem_->flush_tlbs_non_global();
      tlb_next_ = cycle + jittered(lerp_interval(kTlbPeriodSlow,
                                                 kTlbPeriodFast, tlb_i_));
      ++stats_.tlb_shootdowns;
    }
  }

  if (timer_i_ > 0.0) {
    if (timer_next_ == 0) {
      timer_next_ = cycle + jittered(lerp_interval(kTimerPeriodSlow,
                                                   kTimerPeriodFast,
                                                   timer_i_));
    } else if (cycle >= timer_next_) {
      timer_next_ = cycle + jittered(lerp_interval(kTimerPeriodSlow,
                                                   kTimerPeriodFast,
                                                   timer_i_));
      ++stats_.timer_interrupts;
      return jittered(kTimerHandlerCycles);
    }
  }
  return 0;
}

std::uint64_t NoiseEngine::next_due(std::uint64_t cycle) const {
  std::uint64_t due = ~std::uint64_t{0};
  if (dvfs_i_ > 0.0) due = std::min(due, dvfs_next_);
  if (tlb_i_ > 0.0) due = std::min(due, tlb_next_);
  if (timer_i_ > 0.0) due = std::min(due, timer_next_);
  return std::max(due, cycle);  // unscheduled (0) or overdue: due now
}

int NoiseEngine::on_access(const mem::AccessRequest& req,
                           const mem::AccessResult& res) {
  int extra = 0;

  if (smt_i_ > 0.0) {
    if (last_cycle_ >= burst_end_) {
      // Schedule the next sibling burst relative to now.
      const std::uint64_t gap =
          jittered(lerp_interval(kBurstGapSlow, kBurstGapFast, smt_i_));
      const std::uint64_t len =
          jittered(lerp_interval(kBurstLenShort, kBurstLenLong, smt_i_));
      burst_start_ = last_cycle_ + gap;
      burst_end_ = burst_start_ + len;
    }
    if (last_cycle_ >= burst_start_ && last_cycle_ < burst_end_) {
      // Port/bandwidth contention: every access queues behind the sibling.
      const auto range = static_cast<std::uint64_t>(4.0 + 44.0 * smt_i_);
      const int delay = 4 + static_cast<int>(rng_.next_below(range));
      extra += delay;
      ++stats_.contended_accesses;
      stats_.contention_cycles += static_cast<std::uint64_t>(delay);
      // The sibling's fill traffic also rolls through the LFB, displacing
      // whatever stale line Zombieload hoped to sample.
      if (mem_ && rng_.next_below(4) == 0)
        mem_->lfb().record_value(kSiblingPhysBase + 64 * rng_.next_below(16),
                                 rng_.next_below(256), 8);
    }
  }

  if (prefetch_i_ > 0.0 && res.paddr != 0 && res.fault == mem::Fault::None) {
    // Streaming prefetcher: speculative fill of the adjacent lines. Fires
    // on a fraction of demand accesses, scaled by intensity.
    if (mem_ && rng_.next_below(1000) <
                    static_cast<std::uint64_t>(300.0 * prefetch_i_)) {
      const std::uint64_t line = res.paddr & ~std::uint64_t{63};
      (void)mem_->l2().access(line + 64);
      if (rng_.next_below(2) == 0) (void)mem_->l1().access(line + 64);
      ++stats_.prefetch_fills;
    }
  }

  if (dvfs_i_ > 0.0 && dvfs_scale_ != 1.0) {
    // Only the fixed-wall-time part of the access (DRAM + page walk)
    // rescales with the core clock; cache latencies ride the core domain.
    int scalable = res.walk_cycles;
    if (res.cache_level == 4) scalable += mem_ != nullptr
            ? mem_->config().dram_latency
            : 0;
    if (scalable > 0)
      extra += static_cast<int>(
          std::lround(static_cast<double>(scalable) * (dvfs_scale_ - 1.0)));
  }

  (void)req;
  return extra;
}

}  // namespace whisper::noise

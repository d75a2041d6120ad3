// whisper::noise — seeded, deterministic interference injection.
//
// The paper's error rates (Table 2, §4.3–4.5) come from live machines where
// the ToTE channel competes with SMT siblings, timer interrupts, DVFS and
// the hardware prefetchers; the base model's only stochastic element is a
// uniform jitter on DRAM accesses, so every attack decodes perfectly. This
// layer injects those missing interference sources into a Machine:
//
//  * SmtContention  — bursts of sibling port/LFB pressure: extra latency on
//    every access inside a burst, plus fill traffic that overwrites the LFB
//    (degrading Zombieload's stale-data sampling).
//  * TimerInterrupt — periodic asynchronous interrupts that squash and
//    resteer the pipeline through the Core's machine-clear recovery path,
//    truncating any transient window they land in.
//  * Dvfs           — frequency steps: the core clock moves relative to the
//    fixed-time DRAM/page-walk path, rescaling ToTE mid-run.
//  * Prefetcher     — speculative fills of neighbouring lines into L1/L2,
//    polluting the sets the attacks probe.
//  * TlbShootdown   — periodic flushes of the non-global TLB entries
//    (IPI shootdowns from other cores' munmap traffic).
//
// Each source has an intensity knob in [0, 1]; a NoiseProfile composes
// them (presets: off / quiet / desktop / noisy-server). The engine is a
// pure function of (profile, seed, access/cycle stream): two machines with
// the same seed and profile observe byte-identical interference, which is
// what keeps the runner's --jobs determinism contract intact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mem/memory_system.h"
#include "stats/rng.h"
#include "uarch/core.h"

namespace whisper::noise {

enum class NoiseKind : std::uint8_t {
  SmtContention,
  TimerInterrupt,
  Dvfs,
  Prefetcher,
  TlbShootdown,
};
inline constexpr std::size_t kNumNoiseKinds = 5;

[[nodiscard]] const char* to_string(NoiseKind k);

/// One interference source with its intensity knob. 0 disables the source
/// (it then draws no randomness and injects nothing); 1 is the heaviest
/// setting the presets are calibrated over. Values are clamped to [0, 1].
struct NoiseSource {
  NoiseKind kind = NoiseKind::SmtContention;
  double intensity = 0.0;

  bool operator==(const NoiseSource&) const = default;
};

/// A named composition of sources. The profile seed decorrelates the noise
/// stream from the machine's own jitter stream; os::Machine folds it with
/// the machine seed, so per-trial seeding still drives everything.
struct NoiseProfile {
  std::string name = "off";
  std::vector<NoiseSource> sources;
  std::uint64_t seed = 0x9015eULL;

  /// Intensity of `kind` (0 when the profile does not mention it).
  [[nodiscard]] double intensity(NoiseKind kind) const noexcept;
  /// Any source with intensity > 0? An all-zero profile is never attached,
  /// so it cannot perturb a run even in principle (observer-effect test).
  [[nodiscard]] bool enabled() const noexcept;
  /// Copy with every intensity multiplied by `factor` (clamped to [0, 1]).
  /// noise_sweep uses this to walk one preset through intensity steps.
  [[nodiscard]] NoiseProfile scaled(double factor) const;

  [[nodiscard]] static NoiseProfile off();
  /// Idle desktop: rare timer ticks only.
  [[nodiscard]] static NoiseProfile quiet();
  /// Interactive desktop: moderate everything — the acceptance profile.
  [[nodiscard]] static NoiseProfile desktop();
  /// Loaded server: heavy SMT contention, frequent interrupts/shootdowns.
  [[nodiscard]] static NoiseProfile noisy_server();

  /// Parse a preset name ("off", "quiet", "desktop", "noisy-server").
  [[nodiscard]] static std::optional<NoiseProfile> by_name(
      std::string_view name);
  [[nodiscard]] static const std::vector<std::string>& preset_names();
};

/// Injection counters, for tests and the noise_sweep report.
struct NoiseStats {
  std::uint64_t contended_accesses = 0;  // accesses hit by an SMT burst
  std::uint64_t contention_cycles = 0;   // total latency added by bursts
  std::uint64_t timer_interrupts = 0;
  std::uint64_t dvfs_steps = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t tlb_shootdowns = 0;
};

/// The engine: implements both hook interfaces and owns the scheduling
/// state. One engine serves one Machine (attach() wires the MemorySystem
/// pointer the TLB-shootdown and prefetcher sources mutate).
class NoiseEngine final : public mem::MemInterference,
                          public uarch::CoreInterference {
 public:
  NoiseEngine(NoiseProfile profile, std::uint64_t seed);

  /// Target of the stateful sources; must be the MemorySystem this engine
  /// is registered with via set_interference().
  void attach(mem::MemorySystem* mem) noexcept { mem_ = mem; }

  /// mem::MemInterference: extra latency for this access (may be negative
  /// under a DVFS downclock).
  int on_access(const mem::AccessRequest& req,
                const mem::AccessResult& res) override;

  /// uarch::CoreInterference: fires due DVFS steps and TLB shootdowns, and
  /// returns a timer-interrupt handler cost when one is due (0 otherwise).
  std::uint64_t on_cycle(std::uint64_t cycle) override;
  /// uarch::CoreInterference: the earliest due time over the enabled cycle
  /// sources (DVFS, TLB shootdown, timer), or `cycle` when one of them is
  /// not yet scheduled; ~0 when the profile has no cycle source.
  [[nodiscard]] std::uint64_t next_due(std::uint64_t cycle) const override;

  /// Return the engine to its post-construction state for a new trial:
  /// counters zeroed, scheduling state cleared, the noise stream re-derived
  /// exactly as construction with this seed would. The attach()ed
  /// MemorySystem pointer is kept.
  void reset(std::uint64_t seed);

  /// Core-vs-nominal frequency ratio the DVFS source currently applies.
  [[nodiscard]] double dvfs_scale() const noexcept { return dvfs_scale_; }
  [[nodiscard]] const NoiseProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const NoiseStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] std::uint64_t jittered(std::uint64_t mean);

  NoiseProfile profile_;
  mem::MemorySystem* mem_ = nullptr;
  stats::Xoshiro256 rng_;
  NoiseStats stats_;

  // Per-source intensities, snapshot at construction.
  double smt_i_ = 0.0;
  double timer_i_ = 0.0;
  double dvfs_i_ = 0.0;
  double prefetch_i_ = 0.0;
  double tlb_i_ = 0.0;

  // Scheduling state, all in absolute core cycles. 0 = not yet scheduled
  // (the first on_cycle/on_access draws the first due time), so spans the
  // core skips with advance() simply fire the source once when execution
  // resumes — never a backlog of missed events. On a cycle before every
  // cycle source's *_next_, on_cycle only records last_cycle_: that is what
  // lets next_due() hand the core a closed form for a fast-forwarded span.
  std::uint64_t last_cycle_ = 0;
  std::uint64_t timer_next_ = 0;
  std::uint64_t dvfs_next_ = 0;
  std::uint64_t tlb_next_ = 0;
  std::uint64_t burst_start_ = 0;
  std::uint64_t burst_end_ = 0;
  double dvfs_scale_ = 1.0;
};

}  // namespace whisper::noise

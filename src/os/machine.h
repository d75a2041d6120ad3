// Machine: one simulated host — CPU core + memory system + kernel + an
// unprivileged attacker process. This is the top-level handle attacks and
// experiments operate on.
//
//   Machine m(MachineOptions{.model = uarch::CpuModel::KabyLakeI7_7700});
//   auto r = m.run_user(program, regs);
//
// The attacker process gets code, stack, scratch data and a shared page
// mapped user-accessible in both page-table views; the kernel half follows
// the KernelOptions (KASLR slot, KPTI, FLARE, FGKASLR).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "isa/builder.h"
#include "isa/program.h"
#include "mem/memory_system.h"
#include "noise/noise.h"
#include "os/kernel_layout.h"
#include "uarch/config.h"
#include "uarch/core.h"

namespace whisper::os {

struct MachineOptions {
  uarch::CpuModel model = uarch::CpuModel::KabyLakeI7_7700;
  KernelOptions kernel;
  /// §4.5: the attack also works from inside a container. Pure namespace
  /// isolation — no microarchitectural change; recorded for reporting.
  bool docker = false;
  std::uint64_t seed = 0;  // 0 = derive from the CPU model preset
  /// Full CPU-config override for ablation studies; replaces the preset
  /// derived from `model` when set.
  std::optional<uarch::CpuConfig> config;
  /// Interference profile (noise::NoiseProfile presets or custom). The
  /// engine is only instantiated when some source has intensity > 0, so
  /// the default "off" profile leaves the machine cycle-identical to a
  /// build without the noise layer at all.
  noise::NoiseProfile noise{};
};

class Machine {
 public:
  // Attacker-process layout (all 4 KiB user pages unless noted).
  static constexpr std::uint64_t kCodeBase = 0x0000000000400000ull;
  static constexpr std::uint64_t kCodeBytes = 0x10000;
  static constexpr std::uint64_t kDataBase = 0x0000000000600000ull;
  static constexpr std::uint64_t kDataBytes = 0x20000;
  static constexpr std::uint64_t kStackBase = 0x00000000007f0000ull;
  static constexpr std::uint64_t kStackBytes = 0x10000;
  static constexpr std::uint64_t kStackTop = kStackBase + kStackBytes - 0x100;
  static constexpr std::uint64_t kSharedBase = 0x0000000000800000ull;
  static constexpr std::uint64_t kSharedBytes = 0x10000;
  /// Eviction buffer: two 4 KiB pages per (set, way) of the STLB — twice
  /// the capacity, so every pass misses everywhere and displaces every
  /// other translation (§4.2: "the TLB can be evicted or invalid by other
  /// methods"). A capacity-sized buffer would stop missing after its first
  /// pass (classic eviction-set pitfall).
  static constexpr std::uint64_t kEvictBase = 0x0000000000a00000ull;
  static constexpr std::uint64_t kEvictBytes = 8ull << 20;

  explicit Machine(const MachineOptions& opts);

  /// Capture the machine's current memory contents as the baseline that
  /// reset() restores. O(1) — dirty tracking starts here; nothing is copied
  /// until frames/sets are actually written. Call once after construction
  /// (and any shared setup all trials should see), then reset() per trial.
  void snapshot();

  /// The trial fast path: restore the snapshot and return every
  /// microarchitectural structure — caches, TLBs, LFB, BPU, PMU, DSB, cycle
  /// counter — and every RNG to the state a freshly constructed
  /// Machine(options with .seed = seed) would have, without reallocating
  /// anything. A reset machine is bit-identical to a fresh one
  /// (tests/test_machine_reset.cpp pins this for every registry attack).
  /// seed == 0 re-derives from the CPU preset, mirroring
  /// MachineOptions::seed == 0. Throws std::logic_error before snapshot().
  void reset(std::uint64_t seed = 0);
  [[nodiscard]] bool snapshotted() const noexcept {
    return mem_->snapshotted();
  }

  /// Digest of the architectural memory state right now; snapshot() caches
  /// the baseline value so the runner's fault layer can compare the two
  /// after every reset() and quarantine a machine whose snapshot has
  /// silently drifted. Scans only the frames this machine holds locally
  /// (the shared kernel image's terms are cached), so the check is cheap.
  [[nodiscard]] std::uint64_t state_digest() const noexcept {
    return mem_->state_digest();
  }
  /// The digest captured by the last snapshot() (0 before any snapshot).
  [[nodiscard]] std::uint64_t baseline_digest() const noexcept {
    return baseline_digest_;
  }

  [[nodiscard]] uarch::Core& core() noexcept { return *core_; }
  [[nodiscard]] mem::MemorySystem& memsys() noexcept { return *mem_; }
  /// The attached interference engine, or nullptr when the profile is off.
  [[nodiscard]] noise::NoiseEngine* noise() noexcept { return noise_.get(); }
  [[nodiscard]] KernelLayout& kernel() noexcept { return *kernel_; }
  [[nodiscard]] const uarch::CpuConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] const MachineOptions& options() const noexcept {
    return opts_;
  }

  /// Run a program as the unprivileged attacker (user page-table view).
  uarch::RunResult run_user(const isa::Program& prog,
                            const std::array<std::uint64_t, isa::kNumRegs>&
                                regs = {},
                            int signal_handler = -1,
                            std::uint64_t cycle_limit = 1'000'000);

  /// Run two programs on the SMT siblings (both in the attacker space).
  uarch::RunResult run_smt(const isa::Program& p0,
                           const std::array<std::uint64_t, isa::kNumRegs>& r0,
                           const isa::Program& p1,
                           const std::array<std::uint64_t, isa::kNumRegs>& r1,
                           int signal_handler0 = -1,
                           int signal_handler1 = -1,
                           std::uint64_t cycle_limit = 10'000'000);

  // Architectural access to attacker memory (timing-free).
  [[nodiscard]] std::uint64_t peek64(std::uint64_t vaddr) const;
  [[nodiscard]] std::uint8_t peek8(std::uint64_t vaddr) const;
  void poke64(std::uint64_t vaddr, std::uint64_t value);
  void poke8(std::uint64_t vaddr, std::uint8_t value);
  void poke_bytes(std::uint64_t vaddr, std::span<const std::uint8_t> bytes);
  [[nodiscard]] std::vector<std::uint8_t> peek_bytes(std::uint64_t vaddr,
                                                     std::size_t len) const;

  // --- Attacker-side OS utilities ------------------------------------------
  /// "The TLB can be evicted or invalid by other methods" (§4.2): flush all
  /// TLBs and charge the eviction-buffer cost to simulated time.
  void evict_tlbs();
  /// The mechanism behind the magic: walk the eviction buffer with real
  /// loads until every TLB set/way is displaced. Slower (it executes ~1k
  /// loads on the core) but requires no privileged flush at all.
  void evict_tlbs_via_access();
  /// Flush the whole cache hierarchy (baseline Flush+Reload setup).
  void flush_caches();
  /// Charge attacker overhead (setup, synchronisation) to simulated time.
  void advance_time(std::uint64_t cycles) { core_->advance(cycles); }
  [[nodiscard]] double seconds(std::uint64_t cycles) const {
    return static_cast<double>(cycles) / (cfg_.ghz * 1e9);
  }

  // --- Victim helpers -------------------------------------------------------
  /// Victim on the sibling core touches `value`, staging it in the LFB
  /// (Zombieload's in-flight data, §4.3.2).
  void victim_touch(std::uint64_t value);
  /// Plant a secret string in kernel memory; returns its kernel vaddr.
  std::uint64_t plant_kernel_secret(std::span<const std::uint8_t> bytes);

  /// A syscall round-trip: warms the KPTI trampoline translation, as every
  /// real syscall does. Needed for the FLARE-bypass double-probe.
  void simulate_syscall();

  /// Run a victim program in kernel mode against the kernel page-table view
  /// (a syscall handler, an interrupt path). Its memory traffic flows
  /// through the shared caches and fill buffers — which is how Zombieload's
  /// stale data gets staged mechanistically, without victim_touch().
  uarch::RunResult run_kernel_victim(const isa::Program& prog,
                                     const std::array<std::uint64_t,
                                                      isa::kNumRegs>& regs =
                                         {},
                                     std::uint64_t cycle_limit = 1'000'000);

  /// Address that is guaranteed unmapped in the attacker view (calibration).
  [[nodiscard]] std::uint64_t unmapped_user_address() const noexcept {
    return 0x0000000000000000ull;
  }

 private:
  MachineOptions opts_;
  uarch::CpuConfig cfg_;
  std::uint64_t preset_seed_ = 0;  // cfg seed before any opts.seed override
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<KernelLayout> kernel_;
  mem::PageTable kernel_view_;
  mem::PageTable user_view_;
  std::unique_ptr<uarch::Core> core_;
  std::unique_ptr<noise::NoiseEngine> noise_;
  std::unique_ptr<isa::Program> evict_prog_;
  std::uint64_t baseline_digest_ = 0;
};

}  // namespace whisper::os

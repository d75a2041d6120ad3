// Linux-style kernel address-space model: KASLR placement of the kernel
// image, KPTI shadow tables with the trampoline remnant, FLARE dummy
// mappings, and FGKASLR function shuffling (paper §2.1, §4.5, §6.2).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mem/page_table.h"
#include "mem/phys_mem.h"

namespace whisper::os {

/// The fixed KASLR window of the Linux kernel image: the paper probes
/// 0xffffffff80000000 upward with 512 possible 2 MiB-aligned offsets (§4.5).
inline constexpr std::uint64_t kKaslrRegionStart = 0xffffffff80000000ull;
inline constexpr std::uint64_t kKaslrSlotBytes = 2ull << 20;
inline constexpr int kKaslrSlots = 512;
inline constexpr std::uint64_t kKaslrRegionEnd =
    kKaslrRegionStart + kKaslrSlots * kKaslrSlotBytes;

/// Base address of KASLR slot `slot` (0 ≤ slot < kKaslrSlots).
[[nodiscard]] constexpr std::uint64_t kaslr_slot_base(int slot) noexcept {
  return kKaslrRegionStart + static_cast<std::uint64_t>(slot) * kKaslrSlotBytes;
}

/// KPTI keeps a trampoline mapped in the user tables at this fixed offset
/// from the kernel image base (§4.5 "remnant trampoline at fixed offset").
inline constexpr std::uint64_t kKptiTrampolineOffset = 0xe00000ull;

/// Default kernel image span: 16 MiB of 2 MiB supervisor pages.
inline constexpr std::uint64_t kKernelImageBytes = 16ull << 20;

struct KernelOptions {
  bool kpti = false;
  bool flare = false;
  bool fgkaslr = false;
  /// Slot to place the kernel in; -1 randomises from `seed`.
  int kaslr_slot = -1;
  std::uint64_t seed = 0x4a51c0deULL;  // overwritten by Machine
};

/// One synthetic kernel symbol (for the FGKASLR demonstration).
struct KernelSymbol {
  std::string name;
  std::uint64_t default_offset = 0;  // offset in a non-FGKASLR kernel
  std::uint64_t actual_offset = 0;   // offset in this boot's layout
};

class KernelLayout {
 public:
  /// Lays the kernel out per `opts` and gives `phys` the image bytes by
  /// attaching the process-wide shared image as its base layer
  /// (PhysicalMemory::set_base): no frame is copied until written.
  KernelLayout(mem::PhysicalMemory& phys, const KernelOptions& opts);

  [[nodiscard]] std::uint64_t kernel_base() const noexcept { return base_; }
  [[nodiscard]] int slot() const noexcept { return slot_; }
  [[nodiscard]] bool kpti() const noexcept { return opts_.kpti; }
  [[nodiscard]] bool flare() const noexcept { return opts_.flare; }
  [[nodiscard]] bool fgkaslr() const noexcept { return opts_.fgkaslr; }
  [[nodiscard]] std::uint64_t trampoline_vaddr() const noexcept {
    return base_ + kKptiTrampolineOffset;
  }

  /// Re-derive the seed-dependent layout (KASLR slot, FGKASLR shuffle)
  /// exactly as construction with opts.seed = seed would — without
  /// rewriting the image bytes, which are seed-independent (the trial reset
  /// path restores them through PhysicalMemory::reset). Clears any planted
  /// secret. Returns true when the image moved to a different slot, i.e.
  /// when install() must be replayed into freshly unmapped views.
  bool reseed(std::uint64_t seed);

  /// Populate the kernel halves of the two page-table views.
  /// `kernel_view` gets the full image; `user_view` gets what an unprivileged
  /// process can reach: the full (supervisor) image without KPTI, only the
  /// trampoline with KPTI, plus FLARE dummies over the gaps when enabled.
  void install(mem::PageTable& kernel_view, mem::PageTable& user_view) const;

  /// Plant secret bytes in kernel data; returns their kernel virtual address.
  std::uint64_t plant_secret(std::span<const std::uint8_t> bytes);

  /// Address of a kernel function in this boot's layout.
  /// Throws std::out_of_range for unknown names.
  [[nodiscard]] std::uint64_t symbol_addr(const std::string& name) const;
  /// The attacker's guess: image base + the well-known (non-FGKASLR) offset.
  [[nodiscard]] std::uint64_t symbol_guess(const std::string& name) const;
  [[nodiscard]] const std::vector<KernelSymbol>& symbols() const noexcept {
    return symbols_;
  }

  [[nodiscard]] std::uint64_t image_phys_base() const noexcept {
    return image_pa_;
  }

  /// A guaranteed-unmapped slot base inside the KASLR window, in the same
  /// 1 GiB (PDPT) region as the image — so its page walk depth matches the
  /// other unmapped slots (calibration / experiment control address).
  [[nodiscard]] std::uint64_t unmapped_probe_address() const noexcept {
    const int image_slots =
        static_cast<int>(kKernelImageBytes / kKaslrSlotBytes);
    int s = (slot_ + 64) % (kKaslrSlots - image_slots);
    if (s >= slot_ && s < slot_ + image_slots) s = slot_ + image_slots;
    return kaslr_slot_base(s);
  }

 private:
  /// Everything the constructor derives from opts_.seed: slot, base, and
  /// the (FG)KASLR symbol layout. Shared by the ctor and reseed().
  void derive_layout();

  mem::PhysicalMemory& phys_;
  KernelOptions opts_;
  int slot_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t image_pa_ = 0;
  std::uint64_t dummy_pa_ = 0;
  std::uint64_t secret_vaddr_ = 0;
  std::vector<KernelSymbol> symbols_;
};

}  // namespace whisper::os

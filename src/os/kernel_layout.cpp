#include "os/kernel_layout.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "stats/rng.h"

namespace whisper::os {

namespace {

// Physical placement of the simulated kernel image and the FLARE dummy frame.
constexpr std::uint64_t kImagePhysBase = 0x100000000ull;  // 4 GiB
constexpr std::uint64_t kDummyPhysBase = 0x0ffe00000ull;  // 2 MiB aligned
constexpr std::uint64_t kSecretImageOffset = 0x900000ull;  // in kernel .data

// The kernel image: one recognisable u64 at the start of each frame, so
// Meltdown reads return real data, and zeroes everywhere else. It is built
// as those 4,096 words alone (mem::FrameImage stores only non-zero words),
// never as 16 MiB of bytes. Deliberately seed-independent, which lets every
// machine share one copy and lets reseed() move the image without touching
// physical memory. Built on first use (thread-safe static initialisation)
// and never modified; each machine's writes land in copy-on-write frames of
// its own PhysicalMemory.
const std::shared_ptr<const mem::FrameImage>& kernel_image() {
  static const std::shared_ptr<const mem::FrameImage> image = [] {
    constexpr std::uint64_t kFrames = kKernelImageBytes / mem::kFrameSize;
    std::vector<mem::FrameImage::Word> words(kFrames);
    for (std::uint64_t i = 0; i < kFrames; ++i)
      words[i] = {i * mem::kFrameSize, 0x6b65726e656c0000ull | i};
    return std::make_shared<const mem::FrameImage>(
        kImagePhysBase / mem::kFrameSize, kFrames, words);
  }();
  return image;
}

std::vector<KernelSymbol> default_symbols() {
  // A handful of classic ROP/privilege-escalation targets. Offsets are
  // arbitrary but fixed — "the attacker knows the kernel image's constant
  // offsets" (threat model, §4.2).
  return {
      {"startup_64",          0x000000, 0},
      {"entry_SYSCALL_64",    0xe00040, 0},
      {"commit_creds",        0x0b7c10, 0},
      {"prepare_kernel_cred", 0x0b7f60, 0},
      {"native_write_cr4",    0x063a40, 0},
      {"modprobe_path",       0xc51d20, 0},
      {"core_pattern",        0xc52aa0, 0},
  };
}

}  // namespace

KernelLayout::KernelLayout(mem::PhysicalMemory& phys,
                           const KernelOptions& opts)
    : phys_(phys), opts_(opts), image_pa_(kImagePhysBase),
      dummy_pa_(kDummyPhysBase) {
  derive_layout();
  phys_.set_base(kernel_image());
}

bool KernelLayout::reseed(std::uint64_t seed) {
  const int old_slot = slot_;
  opts_.seed = seed;
  secret_vaddr_ = 0;
  derive_layout();
  return slot_ != old_slot;
}

void KernelLayout::derive_layout() {
  stats::Xoshiro256 rng(opts_.seed ^ 0x4b415352ull);  // "KASR"

  const int max_slot =
      kKaslrSlots - static_cast<int>(kKernelImageBytes / kKaslrSlotBytes);
  slot_ = opts_.kaslr_slot >= 0
              ? opts_.kaslr_slot
              : static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(max_slot)));
  if (slot_ > max_slot)
    throw std::invalid_argument("KernelLayout: slot places image outside "
                                "the KASLR region");
  base_ = kaslr_slot_base(slot_);

  symbols_ = default_symbols();
  if (opts_.fgkaslr) {
    // Function-granular shuffle: permute the function bodies inside the
    // image so that base disclosure no longer pinpoints any symbol (§6.2).
    std::vector<std::size_t> order(symbols_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    std::uint64_t cursor = 0x100000;  // functions live past the boot stub
    for (std::size_t idx : order) {
      symbols_[idx].actual_offset = cursor;
      cursor += 0x8000 + (rng.next_below(8) << 12);
    }
    // The syscall entry/trampoline must stay put for the ABI.
    for (auto& s : symbols_)
      if (s.name == "entry_SYSCALL_64") s.actual_offset = s.default_offset;
  } else {
    for (auto& s : symbols_) s.actual_offset = s.default_offset;
  }
}

void KernelLayout::install(mem::PageTable& kernel_view,
                           mem::PageTable& user_view) const {
  const mem::PteFlags kflags{.present = true,
                             .writable = true,
                             .user = false,
                             .global = true,
                             .reserved = false,
                             .no_exec = false};

  kernel_view.map(base_, image_pa_, kKernelImageBytes, kflags,
                  mem::PageSize::k2M);

  if (!opts_.kpti) {
    // Pre-KPTI world: the kernel image is present (supervisor-only) in the
    // user process's tables — exactly what Meltdown and TET-KASLR probe.
    user_view.map(base_, image_pa_, kKernelImageBytes, kflags,
                  mem::PageSize::k2M);
  } else {
    // KPTI: only the syscall trampoline remains mapped for user mode, at a
    // fixed offset from the image base — the paper's probe target (§4.5).
    user_view.map(trampoline_vaddr(), image_pa_ + kKptiTrampolineOffset,
                  kKaslrSlotBytes, kflags, mem::PageSize::k2M);
  }

  if (opts_.flare) {
    // FLARE: fill every unmapped slot of the KASLR window with a dummy
    // mapping so walk-timing probes see uniform behaviour. Modelled as
    // reserved-bit leaves: the walk completes to full depth (uniform
    // prefetch timing) but the MMU installs no TLB entry — the residual
    // signal TET-KASLR exploits (DESIGN.md §1.4).
    const mem::PteFlags dummy{.present = true,
                              .writable = false,
                              .user = false,
                              .global = false,
                              .reserved = true,
                              .no_exec = true};
    for (int s = 0; s < kKaslrSlots; ++s) {
      const std::uint64_t va = kaslr_slot_base(s);
      if (!user_view.lookup(va) &&
          user_view.walk(va).status == mem::WalkStatus::NotPresent) {
        user_view.map(va, dummy_pa_, kKaslrSlotBytes, dummy,
                      mem::PageSize::k2M);
      }
    }
  }
}

std::uint64_t KernelLayout::plant_secret(
    std::span<const std::uint8_t> bytes) {
  phys_.write_bytes(image_pa_ + kSecretImageOffset, bytes.data(),
                    bytes.size());
  secret_vaddr_ = base_ + kSecretImageOffset;
  return secret_vaddr_;
}

std::uint64_t KernelLayout::symbol_addr(const std::string& name) const {
  for (const auto& s : symbols_)
    if (s.name == name) return base_ + s.actual_offset;
  throw std::out_of_range("KernelLayout: unknown symbol '" + name + "'");
}

std::uint64_t KernelLayout::symbol_guess(const std::string& name) const {
  for (const auto& s : symbols_)
    if (s.name == name) return base_ + s.default_offset;
  throw std::out_of_range("KernelLayout: unknown symbol '" + name + "'");
}

}  // namespace whisper::os

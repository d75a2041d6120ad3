// EntryBleed-style prefetch-timing KASLR probe — the instruction-specific
// baseline the paper positions TET-KASLR against (§2.1, §6.1). The PREFETCH
// latency exposes the page-walk time only, so FLARE's uniform dummy
// mappings defeat it — while TET-KASLR's double probe still wins.
#pragma once

#include <cstdint>

#include "core/attacks/kaslr.h"
#include "core/gadgets.h"
#include "os/machine.h"

namespace whisper::baseline {

class PrefetchKaslr final : public core::KaslrAttack {
 public:
  struct Options {
    int rounds = 3;
  };

  explicit PrefetchKaslr(os::Machine& m) : PrefetchKaslr(m, Options{}) {}
  PrefetchKaslr(os::Machine& m, Options opt);

  [[nodiscard]] std::uint64_t probe_once(std::uint64_t vaddr);

 private:
  /// Per slot the fastest of `rounds` probes, decoded by the same
  /// core::first_mapped_slot() rule as TET-KASLR.
  int scan(core::AttackResult& r) override;

  int rounds_;
  core::GadgetProgram probe_;
};

}  // namespace whisper::baseline

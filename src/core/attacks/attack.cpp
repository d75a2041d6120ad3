#include "core/attacks/attack.h"

#include <algorithm>

namespace whisper::core {

void Attack::checkpoint() {
  if (opt_.checkpoint_hook) opt_.checkpoint_hook(m_);
  if (opt_.cycle_budget != 0) {
    const std::uint64_t used = m_.core().cycle() - run_start_cycle_;
    if (used > opt_.cycle_budget)
      throw BudgetExceeded(
          BudgetExceeded::Kind::kCycles,
          "attack '" + name_ + "': simulated-cycle budget exceeded (" +
              std::to_string(used) + " > " +
              std::to_string(opt_.cycle_budget) + " cycles)");
  }
  if (opt_.wall_budget_seconds > 0.0) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start_wall_)
            .count();
    if (elapsed > opt_.wall_budget_seconds)
      throw BudgetExceeded(
          BudgetExceeded::Kind::kWallClock,
          "attack '" + name_ + "': wall-clock watchdog fired after " +
              std::to_string(elapsed) + "s (budget " +
              std::to_string(opt_.wall_budget_seconds) + "s)");
  }
}

AttackResult Attack::run(std::span<const std::uint8_t> payload) {
  AttackResult r;
  r.attack = name_;

  const std::uint64_t start = m_.core().cycle();
  run_start_cycle_ = start;
  run_start_wall_ = std::chrono::steady_clock::now();
  checkpoint();
  execute(payload, r);
  r.cycles = m_.core().cycle() - start;
  r.seconds = m_.seconds(r.cycles);

  if (!payload.empty()) {
    for (std::size_t i = 0; i < payload.size(); ++i)
      if (i >= r.bytes.size() || r.bytes[i] != payload[i]) ++r.byte_errors;
    r.success = r.byte_errors == 0;
  }
  return r;
}

std::uint8_t ChannelAttack::leak_byte(std::uint64_t target) {
  AttackResult scratch;
  return decode_byte(target, scratch);
}

std::vector<std::uint8_t> ChannelAttack::leak(std::uint64_t target,
                                              std::size_t len) {
  AttackResult scratch;
  decode_bytes(target, len, scratch);
  return scratch.bytes;
}

void ChannelAttack::decode_bytes(std::uint64_t target, std::size_t len,
                                 AttackResult& r) {
  r.bytes.reserve(r.bytes.size() + len);
  for (std::size_t i = 0; i < len; ++i)
    r.bytes.push_back(decode_byte(target + i, r));
}

std::uint8_t ChannelAttack::decode_byte(std::uint64_t target,
                                        AttackResult& r) {
  analyzer_.reset();
  const double conf = escalate(
      default_batches_, r,
      [&](int batch) {
        sweep(target, batch, r);
        analyzer_.end_batch();
      },
      [&] {
        return by_ == DecodeBy::Mean ? analyzer_.mean_confidence()
                                     : analyzer_.confidence();
      });
  r.confidence = std::min(r.confidence, conf);
  r.tote.merge(analyzer_.tote_histogram());
  return static_cast<std::uint8_t>(by_ == DecodeBy::Mean
                                       ? analyzer_.decode_by_mean()
                                       : analyzer_.decode());
}

}  // namespace whisper::core

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
  return decode_adaptive(target, r);
}

std::uint8_t ChannelAttack::decode_adaptive(std::uint64_t target,
                                            AttackResult& r) {
  const auto conf = [&] {
    return by_ == DecodeBy::Mean ? analyzer_.mean_confidence()
                                 : analyzer_.confidence();
  };
  const int n0 = std::max(1, opt_.batches.value_or(default_batches_));
  int done = 0;
  const auto run_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      checkpoint();
      sweep(target, done, r);
      analyzer_.end_batch();
      ++done;
    }
  };

  run_n(n0);
  if (opt_.adaptive) {
    const int budget =
        opt_.batch_budget > 0 ? std::max(opt_.batch_budget, n0) : 8 * n0;
    // Escalate by doubling the total each pass — confidence either clears
    // the threshold on the way or the budget bounds the spend.
    while (conf() < opt_.confidence_threshold && done < budget)
      run_n(std::min(done, budget - done));
    if (conf() < opt_.confidence_threshold) ++r.gave_up;
  }

  r.confidence = std::min(r.confidence, conf());
  r.tote.merge(analyzer_.tote_histogram());
  return static_cast<std::uint8_t>(by_ == DecodeBy::Mean
                                       ? analyzer_.decode_by_mean()
                                       : analyzer_.decode());
}

}  // namespace whisper::core

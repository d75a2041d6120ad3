// Branch prediction unit: gshare-style pattern history table for direction,
// a branch target buffer, and the return stack buffer whose misprediction is
// the Spectre-V5 primitive (paper §4.3.3).
//
// Predictor state deliberately persists across transient squashes: direction
// counters are updated at branch *execution* (including transient
// executions) just as on real parts, which is what trains the gadget
// branches strongly not-taken so that the rare secret-matching probe
// mispredicts.
#pragma once

#include <cstdint>
#include <vector>

#include "uarch/config.h"

namespace whisper::uarch {

struct BranchPrediction {
  bool taken = false;
  std::int32_t target = -1;  // predicted instruction index (when taken)
  bool from_rsb = false;
};

class BranchPredictor {
 public:
  explicit BranchPredictor(const CpuConfig& cfg);

  /// Predict a conditional branch at `pc` with static target `target`.
  [[nodiscard]] BranchPrediction predict_cond(std::int32_t pc,
                                              std::int32_t target);
  /// Record the actual outcome (called at execution, transient or not).
  /// Returns true if the earlier prediction direction would have been wrong.
  void update_cond(std::int32_t pc, bool taken);

  /// RSB handling. push on call fetch, pop on ret fetch.
  void rsb_push(std::int32_t return_pc);
  [[nodiscard]] BranchPrediction predict_ret();

  /// BTB bookkeeping (used for the AMD bp_l1_btb_correct event).
  void btb_record(std::int32_t pc, std::int32_t target);
  [[nodiscard]] bool btb_hit(std::int32_t pc, std::int32_t target) const;

  void reset();

 private:
  [[nodiscard]] std::size_t pht_index(std::int32_t pc) const noexcept;

  CpuConfig cfg_;
  std::vector<std::uint8_t> pht_;   // 2-bit saturating counters
  std::uint64_t ghist_ = 0;
  std::vector<std::int64_t> btb_;   // pc -> target (packed), -1 invalid
  std::vector<std::int32_t> rsb_;
  int rsb_top_ = 0;
  int rsb_valid_ = 0;
};

}  // namespace whisper::uarch

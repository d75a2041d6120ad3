// Pipeline-trace tests: the trace must expose exactly the transient
// life-cycle the channel exploits — instructions that allocate and execute
// but never retire.
#include <gtest/gtest.h>

#include "core/attacks/common.h"
#include "core/gadgets.h"
#include "isa/builder.h"
#include "os/machine.h"
#include "uarch/trace.h"

namespace whisper {
namespace {

using isa::Cond;
using isa::ProgramBuilder;
using isa::Reg;
using uarch::EventLog;
using uarch::TraceEvent;

TEST(TraceTest, StraightLineLifecycle) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  EventLog trace;
  m.core().set_trace(&trace);

  ProgramBuilder b;
  b.mov(Reg::RAX, 1).add(Reg::RAX, 2).halt();
  (void)m.run_user(b.build());
  m.core().set_trace(nullptr);

  // Every instruction allocates, issues, completes, retires exactly once.
  for (std::int32_t pc = 0; pc < 3; ++pc) {
    EXPECT_EQ(trace.count(TraceEvent::Alloc, pc), 1u) << "pc " << pc;
    EXPECT_EQ(trace.count(TraceEvent::Issue, pc), 1u) << "pc " << pc;
    EXPECT_EQ(trace.count(TraceEvent::Retire, pc), 1u) << "pc " << pc;
  }
  EXPECT_EQ(trace.count(TraceEvent::MachineClear), 0u);
  EXPECT_EQ(trace.count(TraceEvent::Mispredict), 0u);
}

TEST(TraceTest, TransientInstructionsNeverRetire) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  EventLog trace;
  m.core().set_trace(&trace);

  ProgramBuilder b;
  b.mov(Reg::RCX, 0)
      .load(Reg::RAX, Reg::RCX)   // pc 1: faults
      .mov(Reg::RBX, 7)           // pc 2: transient
      .label("handler")
      .halt();
  const auto p = b.build();
  (void)m.run_user(p, {}, p.label("handler"));
  m.core().set_trace(nullptr);

  EXPECT_GE(trace.count(TraceEvent::Alloc, 2), 1u)
      << "transient mov must enter the ROB";
  EXPECT_EQ(trace.count(TraceEvent::Retire, 2), 0u)
      << "transient mov must never retire";
  EXPECT_EQ(trace.count(TraceEvent::MachineClear), 1u);
  EXPECT_EQ(trace.count(TraceEvent::SignalRedirect), 1u);
}

TEST(TraceTest, TetGadgetShowsTheWhisperSequence) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  m.poke8(os::Machine::kSharedBase, 'S');
  const auto g = core::make_tet_gadget(
      {.window = core::WindowKind::Tsx,
       .source = core::SecretSource::SharedMemory});
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(Reg::RCX)] = core::kNullProbeAddress;
  regs[static_cast<std::size_t>(Reg::RDX)] = os::Machine::kSharedBase;

  // Warm the shared-secret line (a cold DRAM load would outlive the
  // window and the Jcc would never resolve — as in a real attack loop,
  // the sweep keeps it hot).
  regs[static_cast<std::size_t>(Reg::RBX)] = 'T';
  (void)core::run_tote(m, g, regs);

  EventLog trace;
  m.core().set_trace(&trace);
  regs[static_cast<std::size_t>(Reg::RBX)] = 'S';  // trigger
  (void)core::run_tote(m, g, regs);
  m.core().set_trace(nullptr);

  // The trigger probe must show: transient mispredict -> resteer ->
  // machine clear -> TSX abort, in that order.
  const auto recs = trace.records();
  int misp = -1, clear = -1, abort_ev = -1;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].event == TraceEvent::Mispredict && misp < 0)
      misp = static_cast<int>(i);
    if (recs[i].event == TraceEvent::MachineClear && clear < 0)
      clear = static_cast<int>(i);
    if (recs[i].event == TraceEvent::TsxAbort && abort_ev < 0)
      abort_ev = static_cast<int>(i);
  }
  ASSERT_GE(misp, 0) << trace.to_string();
  ASSERT_GE(clear, 0);
  ASSERT_GE(abort_ev, 0);
  EXPECT_LT(misp, clear) << "the transient mispredict precedes the clear";
  EXPECT_LE(clear, abort_ev);
  EXPECT_GE(trace.count(TraceEvent::SquashYounger), 1u);
}

TEST(TraceTest, NonTriggerProbeHasNoMispredict) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  m.poke8(os::Machine::kSharedBase, 'S');
  const auto g = core::make_tet_gadget(
      {.window = core::WindowKind::Tsx,
       .source = core::SecretSource::SharedMemory});
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(Reg::RCX)] = core::kNullProbeAddress;
  regs[static_cast<std::size_t>(Reg::RDX)] = os::Machine::kSharedBase;
  regs[static_cast<std::size_t>(Reg::RBX)] = 'T';  // no trigger

  // Train first so the branch is predictable, then trace one probe.
  for (int i = 0; i < 4; ++i) (void)core::run_tote(m, g, regs);
  EventLog trace;
  m.core().set_trace(&trace);
  (void)core::run_tote(m, g, regs);
  m.core().set_trace(nullptr);

  EXPECT_EQ(trace.count(TraceEvent::Mispredict), 0u);
  EXPECT_EQ(trace.count(TraceEvent::MachineClear), 1u);
}

TEST(TraceTest, ToStringIsReadable) {
  EventLog trace;
  trace.record({.cycle = 5,
                .thread = 0,
                .event = TraceEvent::Retire,
                .seq = 3,
                .pc = 2,
                .op = isa::Opcode::AddRI});
  const std::string s = trace.to_string();
  EXPECT_NE(s.find("retire"), std::string::npos);
  EXPECT_NE(s.find("pc=2"), std::string::npos);
  EXPECT_NE(s.find("add"), std::string::npos);
}

}  // namespace
}  // namespace whisper

// Architectural correctness of the out-of-order core: programs must compute
// the same results as a sequential interpreter would, regardless of the
// microarchitectural reordering underneath.
#include <gtest/gtest.h>

#include "isa/builder.h"
#include "os/machine.h"
#include "uarch/trace.h"

namespace whisper {
namespace {

using isa::Cond;
using isa::Opcode;
using isa::ProgramBuilder;
using isa::Reg;

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : m_({.model = uarch::CpuModel::KabyLakeI7_7700}) {}

  std::uint64_t reg(const uarch::RunResult& r, Reg rr) {
    return r.t0().regs[static_cast<std::size_t>(rr)];
  }

  os::Machine m_;
};

TEST_F(PipelineTest, ArithmeticChain) {
  ProgramBuilder b;
  b.mov(Reg::RAX, 10)
      .add(Reg::RAX, 5)
      .mov(Reg::RBX, Reg::RAX)
      .sub(Reg::RBX, 3)
      .add(Reg::RAX, Reg::RBX)   // 15 + 12 = 27
      .xor_(Reg::RCX, Reg::RCX)
      .add(Reg::RCX, 0xf0)
      .and_(Reg::RCX, 0x3c)      // 0x30
      .shl(Reg::RCX, 2)          // 0xc0
      .halt();
  const auto r = m_.run_user(b.build());
  EXPECT_TRUE(r.t0().halted);
  EXPECT_EQ(reg(r, Reg::RAX), 27u);
  EXPECT_EQ(reg(r, Reg::RCX), 0xc0u);
}

TEST_F(PipelineTest, LoopSumsCorrectly) {
  // sum = 1 + 2 + ... + 10 = 55
  ProgramBuilder b;
  b.mov(Reg::RAX, 0)
      .mov(Reg::RBX, 1)
      .label("loop")
      .add(Reg::RAX, Reg::RBX)
      .add(Reg::RBX, 1)
      .cmp(Reg::RBX, 11)
      .jcc(Cond::NZ, "loop")
      .halt();
  const auto r = m_.run_user(b.build());
  EXPECT_EQ(reg(r, Reg::RAX), 55u);
}

TEST_F(PipelineTest, FlagsSemantics) {
  ProgramBuilder b;
  b.mov(Reg::RAX, 5)
      .cmp(Reg::RAX, 5)
      .jcc(Cond::Z, "eq")
      .mov(Reg::RBX, 1)
      .jmp("next")
      .label("eq")
      .mov(Reg::RBX, 2)
      .label("next")
      .mov(Reg::RCX, 3)
      .cmp(Reg::RCX, 10)  // 3 - 10 borrows: CF set, SF set
      .jcc(Cond::C, "below")
      .mov(Reg::RDX, 1)
      .jmp("done")
      .label("below")
      .mov(Reg::RDX, 2)
      .label("done")
      .halt();
  const auto r = m_.run_user(b.build());
  EXPECT_EQ(reg(r, Reg::RBX), 2u);
  EXPECT_EQ(reg(r, Reg::RDX), 2u);
}

TEST_F(PipelineTest, StoreLoadRoundtripThroughMemory) {
  ProgramBuilder b;
  b.mov(Reg::RDI, static_cast<std::int64_t>(os::Machine::kDataBase))
      .mov(Reg::RAX, 0x1234567890ll)
      .store(Reg::RDI, Reg::RAX)
      .load(Reg::RBX, Reg::RDI)
      .store_byte(Reg::RDI, Reg::RAX, 0x100)
      .load_byte(Reg::RCX, Reg::RDI, 0x100)
      .halt();
  const auto r = m_.run_user(b.build());
  EXPECT_EQ(reg(r, Reg::RBX), 0x1234567890ull);
  EXPECT_EQ(reg(r, Reg::RCX), 0x90u);
  EXPECT_EQ(m_.peek64(os::Machine::kDataBase), 0x1234567890ull);
}

TEST_F(PipelineTest, CallAndReturn) {
  ProgramBuilder b;
  b.mov(Reg::RAX, 1)
      .call("fn")
      .add(Reg::RAX, 100)  // executes after return: 1+10+100
      .halt();
  b.label("fn").add(Reg::RAX, 10).ret();
  const auto r = m_.run_user(b.build());
  EXPECT_EQ(reg(r, Reg::RAX), 111u);
}

TEST_F(PipelineTest, NestedCalls) {
  ProgramBuilder b;
  b.mov(Reg::RAX, 0).call("f1").halt();
  b.label("f1").add(Reg::RAX, 1).call("f2").add(Reg::RAX, 4).ret();
  b.label("f2").add(Reg::RAX, 2).ret();
  const auto r = m_.run_user(b.build());
  EXPECT_EQ(reg(r, Reg::RAX), 7u);
  EXPECT_TRUE(r.t0().halted);
}

TEST_F(PipelineTest, RdtscPairsAreMonotone) {
  ProgramBuilder b;
  b.rdtsc(Reg::R8).lfence().nop(20).lfence().rdtsc(Reg::R9).halt();
  const auto r = m_.run_user(b.build());
  ASSERT_EQ(r.t0().tsc.size(), 2u);
  EXPECT_GT(r.t0().tsc[1], r.t0().tsc[0]);
}

TEST_F(PipelineTest, TscPersistsAcrossRuns) {
  ProgramBuilder b;
  b.rdtsc(Reg::R8).halt();
  const auto p = b.build();
  const auto r1 = m_.run_user(p);
  const auto r2 = m_.run_user(p);
  ASSERT_EQ(r1.t0().tsc.size(), 1u);
  ASSERT_EQ(r2.t0().tsc.size(), 1u);
  EXPECT_GT(r2.t0().tsc[0], r1.t0().tsc[0]);
}

TEST_F(PipelineTest, BranchPredictorLearnsLoopBranch) {
  // A long loop should settle into correct prediction; verify via PMU.
  ProgramBuilder b;
  b.mov(Reg::RBX, 0)
      .label("loop")
      .add(Reg::RBX, 1)
      .cmp(Reg::RBX, 200)
      .jcc(Cond::NZ, "loop")
      .halt();
  const auto before =
      m_.core().pmu().value(uarch::PmuEvent::BR_MISP_EXEC_ALL_BRANCHES);
  (void)m_.run_user(b.build());
  const auto after =
      m_.core().pmu().value(uarch::PmuEvent::BR_MISP_EXEC_ALL_BRANCHES);
  // gshare warms one PHT counter per distinct history pattern (~index
  // width) and then predicts correctly — far fewer than one miss per
  // iteration.
  EXPECT_LT(after - before, 30u);
}

TEST_F(PipelineTest, CycleLimitIsReported) {
  ProgramBuilder b;
  b.label("forever").jmp("forever");
  const auto r = m_.run_user(b.build(), {}, -1, 2'000);
  EXPECT_TRUE(r.cycle_limit_hit);
  EXPECT_FALSE(r.t0().halted);
}

TEST_F(PipelineTest, RunOffEndHaltsThread) {
  ProgramBuilder b;
  b.nop(3);  // no halt: falls off the end
  const auto r = m_.run_user(b.build(), {}, -1, 50'000);
  // The fetch unit stops; the thread never halts architecturally, so the
  // run ends via the cycle limit.
  EXPECT_TRUE(r.cycle_limit_hit);
}

TEST_F(PipelineTest, FaultWithoutHandlerKillsThread) {
  ProgramBuilder b;
  b.mov(Reg::RCX, 0).load(Reg::RAX, Reg::RCX).halt();
  const auto r = m_.run_user(b.build(), {}, /*signal_handler=*/-1);
  EXPECT_TRUE(r.t0().killed_by_fault);
}

TEST_F(PipelineTest, SignalHandlerSuppressesFault) {
  ProgramBuilder b;
  b.mov(Reg::RCX, 0)
      .load(Reg::RAX, Reg::RCX)
      .mov(Reg::RBX, 111)  // skipped: fault redirects to handler
      .label("handler")
      .mov(Reg::RDX, 222)
      .halt();
  const auto p = b.build();
  const auto r = m_.run_user(p, {}, p.label("handler"));
  EXPECT_FALSE(r.t0().killed_by_fault);
  EXPECT_TRUE(r.t0().halted);
  EXPECT_EQ(reg(r, Reg::RBX), 0u);
  EXPECT_EQ(reg(r, Reg::RDX), 222u);
}

TEST_F(PipelineTest, TsxAbortsToFallbackOnFault) {
  ProgramBuilder b;
  b.mov(Reg::RCX, 0)
      .tsx_begin("abort")
      .load(Reg::RAX, Reg::RCX)
      .mov(Reg::RBX, 1)  // transient only
      .tsx_end()
      .mov(Reg::RDX, 1)  // skipped via abort path? no: fallthrough reaches it
      .label("abort")
      .mov(Reg::RSI, 77)
      .halt();
  const auto r = m_.run_user(b.build());
  EXPECT_FALSE(r.t0().killed_by_fault);
  EXPECT_EQ(reg(r, Reg::RBX), 0u);   // transient write rolled back
  EXPECT_EQ(reg(r, Reg::RDX), 0u);   // post-xend code never retired
  EXPECT_EQ(reg(r, Reg::RSI), 77u);  // abort handler ran
}

TEST_F(PipelineTest, TsxCommitsWhenNoFault) {
  ProgramBuilder b;
  b.mov(Reg::RCX, static_cast<std::int64_t>(os::Machine::kDataBase))
      .tsx_begin("abort")
      .load(Reg::RAX, Reg::RCX)
      .mov(Reg::RBX, 42)
      .tsx_end()
      .label("abort")  // fallthrough reaches this label's code either way
      .halt();
  const auto r = m_.run_user(b.build());
  EXPECT_EQ(reg(r, Reg::RBX), 42u);
}

TEST_F(PipelineTest, SmtRunsBothThreadsToCompletion) {
  ProgramBuilder b0;
  b0.mov(Reg::RAX, 0)
      .label("l")
      .add(Reg::RAX, 1)
      .cmp(Reg::RAX, 50)
      .jcc(Cond::NZ, "l")
      .halt();
  ProgramBuilder b1;
  b1.mov(Reg::RBX, 7).add(Reg::RBX, 8).halt();
  const auto r = m_.run_smt(b0.build(), {}, b1.build(), {});
  EXPECT_TRUE(r.thread[0].halted);
  EXPECT_TRUE(r.thread[1].halted);
  EXPECT_EQ(r.thread[0].regs[static_cast<std::size_t>(Reg::RAX)], 50u);
  EXPECT_EQ(r.thread[1].regs[static_cast<std::size_t>(Reg::RBX)], 15u);
}

TEST_F(PipelineTest, RetiredInstructionCountsAreSane) {
  ProgramBuilder b;
  b.nop(10).halt();
  const auto r = m_.run_user(b.build());
  EXPECT_EQ(r.t0().instructions_retired, 11u);
}

// ---------------------------------------------------------------------------
// Issue select: the gates one select walk must keep
// ---------------------------------------------------------------------------

/// The trace of one run with fast-forward `ff`, from registers R8 = 1 (the
/// imul multiplier) and RBX, RCX (the dividends).
std::vector<uarch::TraceRecord> traced_run(os::Machine& m,
                                           const isa::Program& prog,
                                           bool ff) {
  uarch::EventLog log;
  m.core().set_fast_forward(ff);
  m.core().set_trace(&log);
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(Reg::R8)] = 1;
  regs[static_cast<std::size_t>(Reg::RBX)] = 0x7fffffffll;
  regs[static_cast<std::size_t>(Reg::RCX)] = 0x7ffffff1ll;
  const auto r = m.run_user(prog, regs);
  m.core().set_trace(nullptr);
  EXPECT_TRUE(r.t0().halted);
  return log.records();
}

/// Cycles of every `event` of instruction `op`, in trace order.
std::vector<std::uint64_t> cycles_of(
    const std::vector<uarch::TraceRecord>& log, uarch::TraceEvent event,
    Opcode op) {
  std::vector<std::uint64_t> out;
  for (const uarch::TraceRecord& r : log)
    if (r.event == event && r.op == op) out.push_back(r.cycle);
  return out;
}

TEST(IssueSelect, TwoDividesReadyInOneCycleIssueDivLatencyApart) {
  // Both divides take their divisor from one slow producer (an imul), so
  // its forward makes both ready on the same cycle and one select walk
  // sees the two: the divide issued first must hold the other back.
  ProgramBuilder b;
  b.mov(Reg::RAX, 7).imul(Reg::RAX, Reg::R8);
  b.fdiv(Reg::RBX, Reg::RAX);
  b.fdiv(Reg::RCX, Reg::RAX);
  b.halt();
  const isa::Program prog = b.build();
  for (const bool ff : {true, false}) {
    SCOPED_TRACE(ff ? "fast-forward" : "structural");
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    const auto log = traced_run(m, prog, ff);
    const auto mul_done =
        cycles_of(log, uarch::TraceEvent::Complete, Opcode::ImulRR);
    const auto div_alloc =
        cycles_of(log, uarch::TraceEvent::Alloc, Opcode::FdivRR);
    const auto div_issue =
        cycles_of(log, uarch::TraceEvent::Issue, Opcode::FdivRR);
    ASSERT_EQ(mul_done.size(), 1u);
    ASSERT_EQ(div_alloc.size(), 2u);
    ASSERT_EQ(div_issue.size(), 2u);
    // Both were waiting on the imul, so both wake when it forwards.
    EXPECT_LT(div_alloc[1], mul_done[0]);
    EXPECT_GE(div_issue[1] - div_issue[0],
              static_cast<std::uint64_t>(m.config().div_latency))
        << "the second divide issued while the divider was busy";
  }
}

TEST(IssueSelect, NothingYoungerThanAnUnfinishedLfenceIssues) {
  // Independent moves behind the fence are ready from allocation on, long
  // before the fence's older imul chain finishes; none may issue in the
  // fence's own walk or later until the fence completes.
  ProgramBuilder b;
  b.mov(Reg::RAX, 7)
      .imul(Reg::RAX, Reg::R8)
      .imul(Reg::RAX, Reg::R8)
      .imul(Reg::RAX, Reg::R8)
      .lfence()
      .mov(Reg::RDX, 1)
      .mov(Reg::RSI, 2)
      .mov(Reg::RDI, 3)
      .halt();
  const isa::Program prog = b.build();
  for (const bool ff : {true, false}) {
    SCOPED_TRACE(ff ? "fast-forward" : "structural");
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    const auto log = traced_run(m, prog, ff);
    const auto fence_issue =
        cycles_of(log, uarch::TraceEvent::Issue, Opcode::Lfence);
    const auto fence_done =
        cycles_of(log, uarch::TraceEvent::Complete, Opcode::Lfence);
    const auto mov_alloc =
        cycles_of(log, uarch::TraceEvent::Alloc, Opcode::MovRI);
    const auto mov_issue =
        cycles_of(log, uarch::TraceEvent::Issue, Opcode::MovRI);
    ASSERT_EQ(fence_issue.size(), 1u);
    ASSERT_EQ(fence_done.size(), 1u);
    ASSERT_EQ(mov_alloc.size(), 4u);
    ASSERT_EQ(mov_issue.size(), 4u);
    ASSERT_GT(fence_done[0], fence_issue[0]);
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_LT(mov_alloc[i], fence_issue[0]);  // ready in the fence's walk
      EXPECT_GE(mov_issue[i], fence_done[0])
          << "mov " << i << " issued before the older lfence completed";
    }
  }
}

}  // namespace
}  // namespace whisper

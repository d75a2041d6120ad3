// Differential testing: the out-of-order core must commit exactly what the
// sequential reference interpreter computes, for arbitrary programs. A
// seeded generator (tests/support/program_generator.h, shared with the
// snapshot/reset suite) produces random terminating programs; both engines
// run them; architectural registers and memory must agree.
#include <gtest/gtest.h>

#include "isa/builder.h"
#include "isa/interpreter.h"
#include "os/machine.h"
#include "stats/rng.h"
#include "support/program_generator.h"
#include "support/sim_pin.h"
#include "uarch/pmu.h"

namespace whisper {
namespace {

using isa::Cond;
using isa::ProgramBuilder;
using isa::Reg;
using test_support::kPool;
using test_support::ProgramGenerator;

class DifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialTest, CoreMatchesReferenceInterpreter) {
  ProgramGenerator gen(GetParam());
  for (int round = 0; round < 6; ++round) {
    const isa::Program prog = gen.generate(60);
    const auto init = gen.random_regs();

    // Reference execution against a flat memory image.
    isa::RefMemory ref_mem;
    const auto ref = isa::interpret(prog, init, ref_mem, 50'000);
    ASSERT_NE(ref.status, isa::InterpStatus::StepLimit);
    ASSERT_NE(ref.status, isa::InterpStatus::Faulted);

    // Pipeline execution on a fresh machine.
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    const auto run = m.run_user(prog, init, -1, 400'000);
    ASSERT_FALSE(run.cycle_limit_hit);

    for (Reg r : kPool) {
      EXPECT_EQ(run.t0().regs[static_cast<std::size_t>(r)],
                ref.regs[static_cast<std::size_t>(r)])
          << "register " << isa::to_string(r) << " diverged (seed "
          << GetParam() << " round " << round << ")\n"
          << prog.disassemble();
    }
    // Every byte the reference wrote must match the machine's memory.
    bool mem_ok = true;
    ref_mem.for_each([&](std::uint64_t addr, std::uint8_t value) {
      if (m.peek8(addr) != value) mem_ok = false;
    });
    EXPECT_TRUE(mem_ok) << "memory diverged (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, DifferentialTest,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull, 55ull,
                                           89ull));

// Reset-path differential: the same programs, but run a second time on the
// same Machine after reset(). Both the first run (snapshotted machine) and
// the rerun must match the reference interpreter, and the rerun must be
// cycle-identical to the first — the snapshot/reset fast path may not leave
// any residue the pipeline can observe.
class ResetDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ResetDifferentialTest, RerunAfterResetMatchesReferenceBothTimes) {
  ProgramGenerator gen(GetParam() ^ 0x5e5e7ull);
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700,
                 .seed = GetParam() + 100});
  m.snapshot();
  for (int round = 0; round < 3; ++round) {
    const isa::Program prog = gen.generate(60);
    const auto init = gen.random_regs();

    isa::RefMemory ref_mem;
    const auto ref = isa::interpret(prog, init, ref_mem, 50'000);
    ASSERT_NE(ref.status, isa::InterpStatus::StepLimit);
    ASSERT_NE(ref.status, isa::InterpStatus::Faulted);

    const std::uint64_t seed = GetParam() + 100 + round;
    m.reset(seed);
    const auto first = m.run_user(prog, init, -1, 400'000);
    ASSERT_FALSE(first.cycle_limit_hit);
    m.reset(seed);
    const auto rerun = m.run_user(prog, init, -1, 400'000);
    ASSERT_FALSE(rerun.cycle_limit_hit);

    EXPECT_EQ(rerun.cycles(), first.cycles())
        << "reset left timing residue (seed " << GetParam() << " round "
        << round << ")";
    for (Reg r : kPool) {
      const auto idx = static_cast<std::size_t>(r);
      EXPECT_EQ(first.t0().regs[idx], ref.regs[idx])
          << "first run diverged from reference in " << isa::to_string(r)
          << " (seed " << GetParam() << " round " << round << ")\n"
          << prog.disassemble();
      EXPECT_EQ(rerun.t0().regs[idx], ref.regs[idx])
          << "rerun after reset diverged from reference in "
          << isa::to_string(r) << " (seed " << GetParam() << " round "
          << round << ")\n"
          << prog.disassemble();
    }
    bool mem_ok = true;
    ref_mem.for_each([&](std::uint64_t addr, std::uint8_t value) {
      if (m.peek8(addr) != value) mem_ok = false;
    });
    EXPECT_TRUE(mem_ok) << "memory diverged after reset rerun (seed "
                        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, ResetDifferentialTest,
                         ::testing::Values(3ull, 17ull, 29ull, 41ull));

// Fast-forward differential: the same random programs on two machines that
// differ only in the fast-forward knob. Cycle counts, architectural
// registers and the full PMU image must be identical — invariant 10's
// random-program leg (docs/ARCHITECTURE.md), covering instruction mixes no
// attack gadget exercises.
class FastForwardDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastForwardDifferentialTest, FastForwardIsCycleIdenticalToStructural) {
  ProgramGenerator gen(GetParam() ^ 0xffa57ull);
  for (int round = 0; round < 3; ++round) {
    const isa::Program prog = gen.generate(60);
    const auto init = gen.random_regs();

    os::Machine structural({.model = uarch::CpuModel::KabyLakeI7_7700,
                            .seed = GetParam() + 7});
    structural.core().set_fast_forward(false);
    const auto slow = structural.run_user(prog, init, -1, 400'000);
    ASSERT_FALSE(slow.cycle_limit_hit);

    os::Machine forwarded({.model = uarch::CpuModel::KabyLakeI7_7700,
                           .seed = GetParam() + 7});
    ASSERT_TRUE(forwarded.core().fast_forward());  // the shipping default
    const auto fast = forwarded.run_user(prog, init, -1, 400'000);
    ASSERT_FALSE(fast.cycle_limit_hit);

    EXPECT_EQ(fast.cycles(), slow.cycles())
        << "fast-forward skipped a non-inert span (seed " << GetParam()
        << " round " << round << ")\n"
        << prog.disassemble();
    for (Reg r : kPool) {
      const auto idx = static_cast<std::size_t>(r);
      EXPECT_EQ(fast.t0().regs[idx], slow.t0().regs[idx])
          << "register " << isa::to_string(r) << " diverged (seed "
          << GetParam() << " round " << round << ")\n"
          << prog.disassemble();
    }
    EXPECT_EQ(forwarded.core().pmu().snapshot(),
              structural.core().pmu().snapshot())
        << "PMU image diverged (seed " << GetParam() << " round " << round
        << ")";
    EXPECT_TRUE(test_support::matches_pin(
        test_support::pin_key("round" + std::to_string(round)),
        test_support::PinText()
            .u("cycles", slow.cycles())
            .words("regs", {slow.t0().regs.begin(), slow.t0().regs.end()})
            .pmu("pmu", structural.core().pmu().snapshot())
            .str()));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FastForwardDifferentialTest,
                         ::testing::Values(3ull, 17ull, 29ull, 41ull));

// Hand-written loop programs — fixed trip counts the generator's random
// loops don't guarantee to hit.
TEST(DifferentialLoopTest, CountedLoopsAgree) {
  for (int trip : {1, 7, 63, 200}) {
    ProgramBuilder b;
    b.mov(Reg::RAX, 0).mov(Reg::RBX, 0);
    b.label("loop");
    b.add(Reg::RAX, 3);
    b.imul(Reg::RAX, Reg::RAX);  // nonlinear accumulator
    b.and_(Reg::RAX, 0xffff);
    b.add(Reg::RBX, 1);
    b.cmp(Reg::RBX, trip);
    b.jcc(Cond::NZ, "loop");
    b.halt();
    const isa::Program prog = b.build();

    isa::RefMemory ref_mem;
    const auto ref = isa::interpret(prog, {}, ref_mem);
    os::Machine m({.model = uarch::CpuModel::SkylakeI7_6700});
    const auto run = m.run_user(prog, {}, -1, 1'000'000);
    EXPECT_EQ(run.t0().regs[static_cast<std::size_t>(Reg::RAX)],
              ref.regs[static_cast<std::size_t>(Reg::RAX)])
        << "trip count " << trip;
  }
}

TEST(DifferentialLoopTest, NestedCallsAgree) {
  ProgramBuilder b;
  b.mov(Reg::RAX, 1).call("f1").halt();
  b.label("f1").shl(Reg::RAX, 1).call("f2").add(Reg::RAX, 1).ret();
  b.label("f2").shl(Reg::RAX, 2).add(Reg::RAX, 5).ret();
  const isa::Program prog = b.build();

  isa::RefMemory ref_mem;
  std::array<std::uint64_t, isa::kNumRegs> init{};
  init[static_cast<std::size_t>(Reg::RSP)] = os::Machine::kStackTop;
  const auto ref = isa::interpret(prog, init, ref_mem);

  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  const auto run = m.run_user(prog, {}, -1, 100'000);
  EXPECT_EQ(run.t0().regs[static_cast<std::size_t>(Reg::RAX)],
            ref.regs[static_cast<std::size_t>(Reg::RAX)]);
}

// ---------------------------------------------------------------------------
// Fault-semantics differential: programs with occasional faulting loads.
// Nothing younger than the fault may commit; the architectural state the
// pipeline delivers to the signal handler must equal the interpreter's
// state at the fault point.
// ---------------------------------------------------------------------------

class FaultDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FaultDifferentialTest, HandlerStateMatchesInterpreterFaultState) {
  stats::Xoshiro256 rng(GetParam() ^ 0xfa17);
  for (int round = 0; round < 4; ++round) {
    // Straight-line ALU program with a faulting load at a random position
    // and a tail that must never commit.
    ProgramBuilder b;
    const int prefix = static_cast<int>(rng.next_below(20)) + 2;
    for (int i = 0; i < prefix; ++i) {
      const Reg r = kPool[rng.next_below(std::size(kPool))];
      switch (rng.next_below(3)) {
        case 0: b.add(r, static_cast<std::int64_t>(rng.next_below(99))); break;
        case 1: b.not_(r); break;
        default: b.shl(r, 1); break;
      }
    }
    b.mov(Reg::R15, 0);
    b.load(Reg::RAX, Reg::R15);  // faulting: null deref
    const int suffix = static_cast<int>(rng.next_below(10)) + 1;
    for (int i = 0; i < suffix; ++i)
      b.add(kPool[rng.next_below(std::size(kPool))], 1);  // transient only
    b.label("handler").halt();
    const isa::Program prog = b.build();
    const auto init = [&] {
      std::array<std::uint64_t, isa::kNumRegs> regs{};
      for (Reg r : kPool)
        regs[static_cast<std::size_t>(r)] = rng.next_below(1000);
      return regs;
    }();

    isa::RefMemory ref_mem;
    const auto ref =
        isa::interpret(prog, init, ref_mem, 50'000, /*fault_below=*/0x1000);
    ASSERT_EQ(ref.status, isa::InterpStatus::Faulted);
    ASSERT_EQ(ref.fault_pc, prefix + 1);

    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    const auto run = m.run_user(prog, init, prog.label("handler"), 400'000);
    ASSERT_TRUE(run.t0().halted);
    ASSERT_FALSE(run.t0().killed_by_fault);

    for (Reg r : kPool) {
      EXPECT_EQ(run.t0().regs[static_cast<std::size_t>(r)],
                ref.regs[static_cast<std::size_t>(r)])
          << "register " << isa::to_string(r)
          << " diverged at the fault boundary (seed " << GetParam()
          << " round " << round << ")\n"
          << prog.disassemble();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FaultingPrograms, FaultDifferentialTest,
                         ::testing::Values(7ull, 77ull, 777ull, 7777ull));

TEST(InterpreterTest, StatusReporting) {
  {
    ProgramBuilder b;
    b.nop().halt();
    isa::RefMemory mem;
    EXPECT_EQ(isa::interpret(b.build(), {}, mem).status,
              isa::InterpStatus::Halted);
  }
  {
    ProgramBuilder b;
    b.nop(3);  // no halt
    isa::RefMemory mem;
    EXPECT_EQ(isa::interpret(b.build(), {}, mem).status,
              isa::InterpStatus::RanOffEnd);
  }
  {
    ProgramBuilder b;
    b.label("x").jmp("x");
    isa::RefMemory mem;
    EXPECT_EQ(isa::interpret(b.build(), {}, mem, 100).status,
              isa::InterpStatus::StepLimit);
  }
  {
    ProgramBuilder b;
    b.mov(Reg::RCX, 0x10).load(Reg::RAX, Reg::RCX).halt();
    isa::RefMemory mem;
    const auto r = isa::interpret(b.build(), {}, mem, 100, /*fault_below=*/
                                  0x1000);
    EXPECT_EQ(r.status, isa::InterpStatus::Faulted);
    EXPECT_EQ(r.fault_addr, 0x10u);
    EXPECT_EQ(r.fault_pc, 1);
  }
}

}  // namespace
}  // namespace whisper

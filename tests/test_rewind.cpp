// SpectreRewind and the divider occupancy model underneath it.
//
// The channel is an execution-unit residue: a transient FDIV keeps the
// single non-pipelined divider busy after its squash, so the suite pins
// (1) the substrate — back-to-back divides serialize by div_latency,
// pipelined ops don't, early-exit divisors free the divider after
// div_fast_latency, and a machine clear or reset drains the occupancy —
// and (2) the attack built on it: `rewind` decodes noise-off and quiet
// payloads at zero byte errors and round-trips through the registry.
// Cross-attack byte identity (invariants 8/10/11) lives in the shared
// suites, which iterate core::attack_registry() and so cover `rewind`
// without being named here.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/attacks/registry.h"
#include "core/attacks/rewind.h"
#include "core/gadgets.h"
#include "isa/builder.h"
#include "noise/noise.h"
#include "os/machine.h"
#include "uarch/trace.h"

namespace whisper {
namespace {

using isa::Opcode;
using isa::ProgramBuilder;
using isa::Reg;

os::MachineOptions vulnerable() {
  return {.model = uarch::CpuModel::KabyLakeI7_7700};
}

/// Issue cycles of every retired-or-squashed `op` in a traced run.
std::vector<std::uint64_t> issue_cycles(os::Machine& m,
                                        const isa::Program& prog, Opcode op,
                                        int signal_handler = -1) {
  uarch::EventLog log;
  m.core().set_trace(&log);
  (void)m.run_user(prog, {}, signal_handler);
  m.core().set_trace(nullptr);
  std::vector<std::uint64_t> out;
  for (const uarch::TraceRecord& r : log.records())
    if (r.op == op && r.event == uarch::TraceEvent::Issue)
      out.push_back(r.cycle);
  return out;
}

// ---------------------------------------------------------------------------
// Divider occupancy: the substrate
// ---------------------------------------------------------------------------

TEST(DividerOccupancy, BackToBackDividesSerialize) {
  // Two divides with disjoint registers: no data dependence, so only the
  // busy-until latch can keep them apart.
  ProgramBuilder b;
  b.mov(Reg::RAX, 0x7fffffffll).mov(Reg::RBX, 7);
  b.mov(Reg::RCX, 0x7ffffff1ll).mov(Reg::RDX, 9);
  b.fdiv(Reg::RAX, Reg::RBX);
  b.fdiv(Reg::RCX, Reg::RDX);
  b.halt();

  os::Machine m(vulnerable());
  const auto div_issues = issue_cycles(m, b.build(), Opcode::FdivRR);
  ASSERT_EQ(div_issues.size(), 2u);
  EXPECT_GE(div_issues[1] - div_issues[0],
            static_cast<std::uint64_t>(m.config().div_latency))
      << "independent divides overlapped on the single divider";
}

TEST(DividerOccupancy, PipelinedOpsDoNotSerialize) {
  // The same shape with multiplies: imul is pipelined, so both issue the
  // same cycle — the latch is specific to the divide port.
  ProgramBuilder b;
  b.mov(Reg::RAX, 0x7fffffffll).mov(Reg::RBX, 7);
  b.mov(Reg::RCX, 0x7ffffff1ll).mov(Reg::RDX, 9);
  b.imul(Reg::RAX, Reg::RBX);
  b.imul(Reg::RCX, Reg::RDX);
  b.halt();

  os::Machine m(vulnerable());
  const auto mul_issues = issue_cycles(m, b.build(), Opcode::ImulRR);
  ASSERT_EQ(mul_issues.size(), 2u);
  EXPECT_EQ(mul_issues[0], mul_issues[1]);
}

TEST(DividerOccupancy, EarlyExitDivisorFreesTheDividerSooner) {
  // Divisor 1 takes the early-exit path: the second divide may issue after
  // div_fast_latency instead of the full div_latency.
  ProgramBuilder b;
  b.mov(Reg::RAX, 0x7fffffffll).mov(Reg::RBX, 1);
  b.mov(Reg::RCX, 0x7ffffff1ll).mov(Reg::RDX, 9);
  b.fdiv(Reg::RAX, Reg::RBX);
  b.fdiv(Reg::RCX, Reg::RDX);
  b.halt();

  os::Machine m(vulnerable());
  const auto div_issues = issue_cycles(m, b.build(), Opcode::FdivRR);
  ASSERT_EQ(div_issues.size(), 2u);
  const std::uint64_t gap = div_issues[1] - div_issues[0];
  EXPECT_GE(gap, static_cast<std::uint64_t>(m.config().div_fast_latency));
  EXPECT_LT(gap, static_cast<std::uint64_t>(m.config().div_latency))
      << "an early-exit divide held the divider for the full latency";
}

/// A faulting load with a younger independent divide (divisor in R11 from
/// the initial registers), then a timed divide in the signal handler. The
/// younger divide issues transiently and is squashed by the machine clear;
/// whether the handler's divide waits out its occupancy is exactly what
/// the drain-on-clear contract decides.
isa::Program clear_drain_program(int* handler_out) {
  ProgramBuilder b;
  b.mov(Reg::R10, 0x7ffffffffll);
  b.mov(Reg::R13, 0);        // null pointer: the load faults at retirement
  b.load(Reg::RAX, Reg::R13);
  b.fdiv(Reg::R10, Reg::R11);  // younger, independent: issues transiently
  b.halt();
  b.label("h");
  b.rdtsc(Reg::R8);
  b.mov(Reg::R14, 0x123456789ll);
  b.mov(Reg::R15, 7);
  b.fdiv(Reg::R14, Reg::R15);
  b.lfence();                // waits for the divide before the closing read
  b.rdtsc(Reg::R9);
  b.halt();
  isa::Program p = b.build();
  *handler_out = p.label("h");
  return p;
}

TEST(DividerOccupancy, MachineClearDrainsTheDivider) {
  // Differential: the only difference between the two runs is the divisor
  // of the SQUASHED divide (3 = slow, 1 = early-exit — a register value,
  // not a program byte). If the machine clear drains the divider, the
  // handler's timed divide cannot see the difference.
  int handler = -1;
  const isa::Program prog = clear_drain_program(&handler);
  ASSERT_GE(handler, 0);

  auto handler_time = [&](std::uint64_t divisor) {
    os::Machine m(vulnerable());
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    regs[static_cast<std::size_t>(Reg::R11)] = divisor;
    const uarch::RunResult r = m.run_user(prog, regs, handler);
    const auto& tsc = r.t0().tsc;
    EXPECT_TRUE(r.t0().halted);
    EXPECT_EQ(tsc.size(), 2u);
    return tsc.size() == 2 ? tsc[1] - tsc[0] : 0ull;
  };

  EXPECT_EQ(handler_time(3), handler_time(1))
      << "squashed-divide occupancy leaked across a machine clear";
}

TEST(DividerOccupancy, ResetDrainsTheDivider) {
  // A reset() machine times a divide exactly like a fresh one, even after
  // a dirty pass that exercised the divider (a stale busy-until latch
  // would stall the post-reset divide for a long time: the dirty run's
  // cycle count dwarfs the fresh machine's).
  ProgramBuilder b;
  b.rdtsc(Reg::R8);
  b.mov(Reg::RAX, 0x7fffffffll);
  b.mov(Reg::RBX, 7);
  b.fdiv(Reg::RAX, Reg::RBX);
  b.lfence();
  b.rdtsc(Reg::R9);
  b.halt();
  const isa::Program timed = b.build();

  auto tote = [&](os::Machine& m) {
    const uarch::RunResult r = m.run_user(timed);
    return r.t0().tsc.at(1) - r.t0().tsc.at(0);
  };

  os::Machine fresh(vulnerable());
  os::Machine reused(vulnerable());
  reused.snapshot();
  for (int i = 0; i < 8; ++i) (void)tote(reused);  // dirty the divider
  reused.reset(reused.options().seed);

  EXPECT_EQ(tote(reused), tote(fresh));
}

// ---------------------------------------------------------------------------
// The attack end to end
// ---------------------------------------------------------------------------

void expect_clean_decode(const noise::NoiseProfile& profile,
                         const std::string& what) {
  os::MachineOptions opts = vulnerable();
  opts.noise = profile;
  opts.seed = 0x5eedull;
  os::Machine m(opts);
  const auto atk = core::make_attack("rewind", m);

  const std::string text = "Rewind!";
  const std::vector<std::uint8_t> payload(text.begin(), text.end());
  const core::AttackResult r = atk->run(payload);
  EXPECT_TRUE(r.success) << what;
  EXPECT_EQ(r.byte_errors, 0u) << what;
  EXPECT_EQ(r.bytes, payload) << what;
  EXPECT_GT(r.probes, 0u) << what;
}

TEST(SpectreRewindAttack, DecodesNoiseOffAtZeroErrors) {
  expect_clean_decode(noise::NoiseProfile::off(), "noise off");
}

TEST(SpectreRewindAttack, DecodesQuietProfileAtZeroErrors) {
  expect_clean_decode(noise::NoiseProfile::quiet(), "quiet profile");
}

TEST(SpectreRewindAttack, RegistryRoundTrip) {
  const core::AttackInfo* info = core::find_attack("rewind");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->channel);
  EXPECT_NE(info->description.find("divider"), std::string::npos);

  // Registered between the TET set and kaslr, and constructible through
  // the same path every consumer uses.
  const std::vector<std::string> names = core::attack_names();
  ASSERT_GE(names.size(), 2u);
  EXPECT_NE(std::find(names.begin(), names.end(), "rewind"), names.end());
  EXPECT_EQ(names.back(), "kaslr");

  os::Machine m(vulnerable());
  const auto atk = core::make_attack("rewind", m);
  ASSERT_NE(atk, nullptr);
  EXPECT_EQ(atk->name(), "rewind");
}

}  // namespace
}  // namespace whisper

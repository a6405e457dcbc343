/**
 * @file
 * Tests for the scalar core timing models: in-order scoreboard
 * behaviour (dependency stalls, structural hazards, branch bubbles,
 * dual issue) and OoO greedy-dataflow behaviour (ILP extraction,
 * front-end and ROB limits), plus cross-model ordering properties.
 */

#include <gtest/gtest.h>

#include <string>

#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "isa/program.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc::cpu {
namespace {

using isa::kNoReg;
using isa::Program;
using isa::Uop;
using isa::UopKind;

/** Chain of n dependent FMAs. */
Program
dependentChain(int n)
{
    Program p;
    uint32_t acc = p.newReg();
    p.push(Uop::scalar(UopKind::FpMove, acc));
    for (int i = 0; i < n; ++i) {
        uint32_t next = p.newReg();
        p.push(Uop::scalar(UopKind::FpFma, next, acc));
        acc = next;
    }
    return p;
}

/** n independent FMAs. */
Program
independentOps(int n)
{
    Program p;
    for (int i = 0; i < n; ++i)
        p.push(Uop::scalar(UopKind::FpFma, p.newReg()));
    return p;
}

TEST(InOrder, DependentChainBoundByLatency)
{
    InOrderCore rocket(InOrderConfig::rocket());
    int n = 50;
    auto r = rocket.run(dependentChain(n));
    // Each FMA waits fpLatency for its predecessor.
    EXPECT_GE(r.cycles, static_cast<uint64_t>(n) * 4);
    EXPECT_LE(r.cycles, static_cast<uint64_t>(n) * 4 + 10);
}

TEST(InOrder, IndependentOpsBoundByIssueWidth)
{
    InOrderCore rocket(InOrderConfig::rocket());
    int n = 64;
    auto r = rocket.run(independentOps(n));
    // Single issue: one per cycle plus drain.
    EXPECT_GE(r.cycles, static_cast<uint64_t>(n));
    EXPECT_LE(r.cycles, static_cast<uint64_t>(n) + 8);
}

TEST(InOrder, ShuttleDualIssuesMixedIntFp)
{
    // Shuttle has one FPU, so pure-FP streams cannot dual-issue, but
    // int+fp pairs can.
    Program p;
    for (int i = 0; i < 40; ++i) {
        p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
        p.push(Uop::scalar(UopKind::FpFma, p.newReg()));
    }
    InOrderCore rocket(InOrderConfig::rocket());
    InOrderCore shuttle(InOrderConfig::shuttle());
    auto rr = rocket.run(p);
    auto rs = shuttle.run(p);
    EXPECT_LT(rs.cycles, rr.cycles);
    // Close to 2x on this mix.
    EXPECT_LT(rs.cycles, rr.cycles * 3 / 4);
}

TEST(InOrder, LoadUseStall)
{
    Program p;
    uint32_t v = p.newReg();
    p.push(Uop::mem(UopKind::Load, v, kNoReg));
    uint32_t w = p.newReg();
    p.push(Uop::scalar(UopKind::FpAdd, w, v));
    InOrderCore rocket(InOrderConfig::rocket());
    auto r = rocket.run(p);
    // Load at cycle 0 ready at 3; add issues at 3, completes at 7.
    EXPECT_EQ(r.cycles, 7u);
    EXPECT_GT(r.stats.get("stall_data"), 0u);
}

TEST(InOrder, TakenBranchBubble)
{
    Program no_branch = independentOps(10);
    Program with_branches;
    for (int i = 0; i < 10; ++i) {
        with_branches.push(
            Uop::scalar(UopKind::FpFma, with_branches.newReg()));
        Uop br = Uop::scalar(UopKind::Branch, kNoReg);
        br.taken = 1;
        with_branches.push(br);
    }
    InOrderCore rocket(InOrderConfig::rocket());
    auto a = rocket.run(no_branch);
    auto b = rocket.run(with_branches);
    // Each taken branch costs issue slot + redirect bubble.
    EXPECT_GT(b.cycles, a.cycles + 10 * 2);
}

TEST(InOrder, MemPortStructuralHazard)
{
    Program p;
    for (int i = 0; i < 32; ++i)
        p.push(Uop::mem(UopKind::Store, kNoReg, kNoReg));
    InOrderCore shuttle(InOrderConfig::shuttle());
    auto r = shuttle.run(p);
    // One mem port: despite dual issue, one store per cycle.
    EXPECT_GE(r.cycles, 32u);
}

TEST(InOrder, ScalarCoreRejectsVectorUops)
{
    Program p;
    p.push(Uop::vec(UopKind::VLoad, p.newVReg(), kNoReg, kNoReg, 8));
    InOrderCore rocket(InOrderConfig::rocket());
    EXPECT_DEATH({ rocket.run(p); }, "");
}

TEST(Ooo, ExtractsIlpFromChainPairs)
{
    // Two interleaved dependent chains: in-order is serialized by
    // latency, OoO overlaps them.
    Program p;
    uint32_t a = p.newReg(), b = p.newReg();
    p.push(Uop::scalar(UopKind::FpMove, a));
    p.push(Uop::scalar(UopKind::FpMove, b));
    for (int i = 0; i < 40; ++i) {
        uint32_t na = p.newReg();
        p.push(Uop::scalar(UopKind::FpFma, na, a));
        a = na;
        uint32_t nb = p.newReg();
        p.push(Uop::scalar(UopKind::FpFma, nb, b));
        b = nb;
    }
    InOrderCore rocket(InOrderConfig::rocket());
    OooCore mega(OooConfig::boomMega());
    auto rin = rocket.run(p);
    auto rout = mega.run(p);
    EXPECT_LT(rout.cycles, rin.cycles);
}

TEST(Ooo, FrontWidthLimitsThroughput)
{
    Program p = independentOps(400);
    OooCore small(OooConfig::boomSmall());
    OooCore mega(OooConfig::boomMega());
    auto rs = small.run(p);
    auto rm = mega.run(p);
    // Small: 1/cycle front end. Mega: 4-wide front, 2 FPUs -> 2/cycle.
    EXPECT_GE(rs.cycles, 400u);
    EXPECT_LE(rm.cycles, 210u);
}

TEST(Ooo, RobBoundsRuntimeDifference)
{
    // A long-latency op at the head plus many independents: the ROB
    // limits how far ahead the core can run.
    Program p;
    uint32_t v = p.newReg();
    p.push(Uop::scalar(UopKind::FpDiv, v));
    for (int i = 0; i < 300; ++i)
        p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    OooConfig tiny = OooConfig::boomSmall();
    tiny.robSize = 8;
    OooConfig big = OooConfig::boomSmall();
    big.robSize = 256;
    auto rt = OooCore(tiny).run(p);
    auto rb = OooCore(big).run(p);
    EXPECT_LE(rb.cycles, rt.cycles);
}

TEST(Ooo, MonotoneAcrossBoomScaling)
{
    // Bigger BOOMs are never slower on a mixed workload.
    Program p;
    for (int i = 0; i < 100; ++i) {
        uint32_t v = p.newReg();
        p.push(Uop::mem(UopKind::Load, v, kNoReg));
        p.push(Uop::scalar(UopKind::FpFma, p.newReg(), v));
        p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    }
    auto small = OooCore(OooConfig::boomSmall()).run(p).cycles;
    auto medium = OooCore(OooConfig::boomMedium()).run(p).cycles;
    auto large = OooCore(OooConfig::boomLarge()).run(p).cycles;
    auto mega = OooCore(OooConfig::boomMega()).run(p).cycles;
    EXPECT_GE(small, medium);
    EXPECT_GE(medium, large);
    EXPECT_GE(large, mega);
}

TEST(Models, DeterministicAcrossRuns)
{
    Program p = dependentChain(30);
    InOrderCore rocket(InOrderConfig::rocket());
    OooCore boom(OooConfig::boomMedium());
    EXPECT_EQ(rocket.run(p).cycles, rocket.run(p).cycles);
    EXPECT_EQ(boom.run(p).cycles, boom.run(p).cycles);
}

TEST(Models, RegionAttributionSumsToTotal)
{
    Program p;
    p.beginKernel("k1");
    for (int i = 0; i < 10; ++i)
        p.push(Uop::scalar(UopKind::FpFma, p.newReg()));
    p.endKernel();
    p.beginKernel("k2");
    for (int i = 0; i < 10; ++i)
        p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    p.endKernel();

    InOrderCore rocket(InOrderConfig::rocket());
    auto r = rocket.run(p);
    uint64_t sum = 0;
    for (uint64_t c : r.regionCycles)
        sum += c;
    EXPECT_LE(sum, r.cycles);
    EXPECT_GE(sum, r.cycles - 8); // only pipeline drain unattributed
}

TEST(Models, EmptyProgramIsZeroCycles)
{
    Program p;
    InOrderCore rocket(InOrderConfig::rocket());
    EXPECT_EQ(rocket.run(p).cycles, 0u);
    OooCore boom(OooConfig::boomSmall());
    EXPECT_EQ(boom.run(p).cycles, 0u);
}

TEST(Models, RejectOutOfRangeDestinationRegister)
{
    // A uop writing a register the program never allocated (a
    // malformed or badly decoded stream) must stop every engine: the
    // AoS oracle would keep the write, so dropping it would silently
    // change the cycles.
    Program scalar;
    const uint32_t r = scalar.newReg();
    scalar.push(Uop::scalar(UopKind::IntAlu, r));
    scalar.push(Uop::scalar(UopKind::IntAlu, r + 7, r));
    InOrderCore rocket(InOrderConfig::rocket());
    OooCore boom(OooConfig::boomSmall());
    systolic::GemminiModel gemmini(systolic::GemminiConfig::os4x4());
    const std::string bad_scalar =
        "scalar register " + std::to_string(r + 7) +
        "; the program declares " +
        std::to_string(scalar.scalarRegCount());
    EXPECT_DEATH(rocket.run(scalar), bad_scalar);
    EXPECT_DEATH(boom.run(scalar), bad_scalar);
    EXPECT_DEATH(gemmini.run(scalar), bad_scalar);

    Program vec;
    const uint32_t v = vec.newVReg();
    vec.push(Uop::vec(UopKind::VArith, v, kNoReg, kNoReg, 8));
    vec.push(Uop::vec(UopKind::VArith, v + 3, v, kNoReg, 8));
    vector::SaturnModel saturn(vector::SaturnConfig::make(512, 256, false));
    const std::string bad_vector =
        "vector register " + std::to_string((v & 0x7fffffffu) + 3) +
        "; the program declares " + std::to_string(vec.vectorRegCount());
    EXPECT_DEATH(saturn.run(vec), bad_vector);
}

} // namespace
} // namespace rtoc::cpu

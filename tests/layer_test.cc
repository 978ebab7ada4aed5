// Direct tests of the accelerator layer's DecodeUnit semantics:
// pass structure, chaining credit, loop accounting, cost-only mode.

#include <gtest/gtest.h>

#include "accel/layer.hh"
#include "common/logging.hh"
#include "dram/params.hh"
#include "dram/physmem.hh"
#include "noc/mesh.hh"
#include "runtime/runtime.hh"

namespace mealib::accel {
namespace {

OpCall
resmpCall(Addr in, Addr out, std::uint64_t n)
{
    OpCall c;
    c.kind = AccelKind::RESMP;
    c.n = n;
    c.m = 2 * n;
    c.complexData = true;
    c.in0.base = in;
    c.out.base = out;
    return c;
}

OpCall
fftCall(Addr in, Addr out, std::uint64_t n)
{
    OpCall c;
    c.kind = AccelKind::FFT;
    c.n = n;
    c.complexData = true;
    c.in0.base = in;
    c.out.base = out;
    return c;
}

class LayerTest : public ::testing::Test
{
  protected:
    LayerTest()
        : layer_(dram::hmcStack(), noc::mealibMesh(),
                 /*functional=*/false),
          mem_(1_MiB)
    {
    }

    AcceleratorLayer layer_;
    dram::PhysMem mem_;
};

TEST_F(LayerTest, CountsPassesAndComps)
{
    DescriptorProgram prog;
    prog.addComp(resmpCall(0, 1_GiB, 4096));
    prog.addPassEnd();
    prog.addComp(fftCall(1_GiB, 2_GiB, 8192));
    prog.addPassEnd();
    ExecStats s = layer_.execute(prog, mem_);
    EXPECT_EQ(s.passes, 2u);
    EXPECT_EQ(s.compsExecuted, 2u);
    EXPECT_GT(s.timeByAccel.get("RESMP"), 0.0);
    EXPECT_GT(s.timeByAccel.get("FFT"), 0.0);
}

TEST_F(LayerTest, ChainedPassCheaperThanSeparatePasses)
{
    const std::uint64_t n = 1 << 16;
    // Chained: FFT reads exactly what RESMP wrote.
    DescriptorProgram chained;
    chained.addComp(resmpCall(0, 1_GiB, n));
    chained.addComp(fftCall(1_GiB, 2_GiB, 2 * n));
    chained.addPassEnd();

    // Same work in two passes (no chaining credit, extra pass start).
    DescriptorProgram split;
    split.addComp(resmpCall(0, 1_GiB, n));
    split.addPassEnd();
    split.addComp(fftCall(1_GiB, 2_GiB, 2 * n));
    split.addPassEnd();

    ExecStats sc = layer_.execute(chained, mem_);
    ExecStats ss = layer_.execute(split, mem_);
    EXPECT_LT(sc.total.seconds, ss.total.seconds);
    EXPECT_LT(sc.total.joules, ss.total.joules);
    EXPECT_LT(sc.bytesMoved, ss.bytesMoved);
}

TEST_F(LayerTest, UnrelatedCompsGetNoChainCredit)
{
    const std::uint64_t n = 1 << 16;
    // Same pass but the FFT reads a different buffer.
    DescriptorProgram unrelated;
    unrelated.addComp(resmpCall(0, 1_GiB, n));
    unrelated.addComp(fftCall(3_GiB, 2_GiB, 2 * n));
    unrelated.addPassEnd();

    DescriptorProgram chained;
    chained.addComp(resmpCall(0, 1_GiB, n));
    chained.addComp(fftCall(1_GiB, 2_GiB, 2 * n));
    chained.addPassEnd();

    ExecStats su = layer_.execute(unrelated, mem_);
    ExecStats sc = layer_.execute(chained, mem_);
    EXPECT_GT(su.bytesMoved, sc.bytesMoved);
}

TEST_F(LayerTest, ChainCreditNeverGoesNegative)
{
    // Tiny chained ops: the credit clamp (<= 50% of the pair's cost)
    // must keep every accounting entry positive.
    DescriptorProgram prog;
    prog.addComp(resmpCall(0, 1_GiB, 16));
    prog.addComp(fftCall(1_GiB, 2_GiB, 32));
    prog.addPassEnd();
    ExecStats s = layer_.execute(prog, mem_);
    EXPECT_GT(s.total.seconds, 0.0);
    EXPECT_GT(s.total.joules, 0.0);
    for (const auto &[k, v] : s.timeByAccel.parts())
        EXPECT_GE(v, 0.0) << k;
    for (const auto &[k, v] : s.energyByAccel.parts())
        EXPECT_GE(v, 0.0) << k;
}

TEST_F(LayerTest, LoopMultipliesWork)
{
    OpCall c = fftCall(0, 1_GiB, 4096);
    DescriptorProgram once;
    once.addComp(c);
    once.addPassEnd();

    DescriptorProgram looped;
    LoopSpec loop;
    loop.dims = {16, 1, 1, 1};
    // Advance the buffers per iteration so no reuse credit applies.
    OpCall cl = c;
    cl.in0.stride[0] = 4096 * 8;
    cl.out.stride[0] = 4096 * 8;
    looped.addLoop(loop, 2);
    looped.addComp(cl);
    looped.addPassEnd();

    ExecStats s1 = layer_.execute(once, mem_);
    ExecStats s16 = layer_.execute(looped, mem_);
    EXPECT_EQ(s16.compsExecuted, 16u);
    EXPECT_NEAR(s16.flops / s1.flops, 16.0, 0.01);
    // One descriptor still pays the invocation machinery once.
    EXPECT_LT(s16.invocation.seconds, 16.0 * s1.invocation.seconds);
}

TEST_F(LayerTest, CostOnlyModeNeverTouchesMemory)
{
    // functional=false: operand addresses far beyond the 1 MiB backing
    // must not fault.
    DescriptorProgram prog;
    prog.addComp(fftCall(3_GiB, 2_GiB, 1 << 20));
    prog.addPassEnd();
    EXPECT_NO_THROW(layer_.execute(prog, mem_));
}

TEST_F(LayerTest, FunctionalModeChecksBounds)
{
    AcceleratorLayer functional(dram::hmcStack(), noc::mealibMesh(),
                                true);
    DescriptorProgram prog;
    prog.addComp(fftCall(3_GiB, 2_GiB, 1 << 20)); // outside backing
    prog.addPassEnd();
    EXPECT_THROW(functional.execute(prog, mem_), FatalError);
}

TEST_F(LayerTest, InvocationScalesWithInstructionCount)
{
    DescriptorProgram small;
    small.addComp(fftCall(0, 1_GiB, 4096));
    small.addPassEnd();

    DescriptorProgram big;
    for (int i = 0; i < 8; ++i) {
        big.addComp(fftCall(0, 1_GiB, 4096));
        big.addPassEnd();
    }
    ExecStats ss = layer_.execute(small, mem_);
    ExecStats sb = layer_.execute(big, mem_);
    EXPECT_GT(sb.invocation.seconds, ss.invocation.seconds);
    EXPECT_EQ(sb.passes, 8u);
}

/** Seconds and joules of two costs, compared exactly. */
void
expectSameCost(const Cost &a, const Cost &b)
{
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.joules, b.joules);
}

TEST_F(LayerTest, RepeatedProgramCostsWhatAFreshLayerCharges)
{
    DescriptorProgram prog;
    prog.addComp(resmpCall(0, 1_GiB, 4096));
    prog.addComp(fftCall(1_GiB, 2_GiB, 8192));
    prog.addPassEnd();

    ExecStats first = layer_.execute(prog, mem_);
    ExecStats repeat = layer_.execute(prog, mem_); // DRAM price remembered
    AcceleratorLayer fresh(dram::hmcStack(), noc::mealibMesh(),
                           /*functional=*/false);
    ExecStats control = fresh.execute(prog, mem_);
    for (const ExecStats *s : {&repeat, &control}) {
        expectSameCost(s->total, first.total);
        expectSameCost(s->invocation, first.invocation);
        EXPECT_EQ(s->timeByAccel.parts(), first.timeByAccel.parts());
        EXPECT_EQ(s->energyByAccel.parts(), first.energyByAccel.parts());
        EXPECT_EQ(s->energyByComponent.parts(),
                  first.energyByComponent.parts());
        EXPECT_EQ(s->bytesMoved, first.bytesMoved);
        EXPECT_EQ(s->flops, first.flops);
    }
}

TEST(RuntimeLedger, SameCompTwicePostsIdenticalEntries)
{
    runtime::RuntimeConfig cfg;
    cfg.functional = false;
    cfg.backingBytes = 8_MiB;
    cfg.residency.enabled = false;
    runtime::MealibRuntime rt(cfg);

    DescriptorProgram prog;
    prog.addComp(fftCall(0, 4_MiB, 1 << 16));
    prog.addPassEnd();
    auto runOnce = [&] {
        runtime::AccPlanHandle h = rt.accPlan(prog);
        rt.accExecute(h);
        rt.accDestroy(h);
        EnergyLedger posted = rt.ledger();
        rt.resetAccounting();
        return posted;
    };
    const EnergyLedger first = runOnce();
    const EnergyLedger second = runOnce(); // the model's memo answers

    ASSERT_EQ(second.tracks().size(), first.tracks().size());
    for (const auto &[track, cost] : first.tracks()) {
        SCOPED_TRACE(track);
        expectSameCost(second.track(track), cost);
    }
    ASSERT_EQ(second.events().size(), first.events().size());
    for (const auto &[label, ev] : first.events()) {
        SCOPED_TRACE(label);
        auto it = second.events().find(label);
        ASSERT_NE(it, second.events().end());
        EXPECT_EQ(it->second.count, ev.count);
        expectSameCost(it->second.cost, ev.cost);
    }
    EXPECT_EQ(second.energyByComponent().parts(),
              first.energyByComponent().parts());
    EXPECT_EQ(second.flops(), first.flops());
}

TEST_F(LayerTest, ModelAccessorExposesAllKinds)
{
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(AccelKind::kCount); ++k) {
        auto kind = static_cast<AccelKind>(k);
        EXPECT_EQ(layer_.model(kind).kind(), kind);
    }
}

} // namespace
} // namespace mealib::accel

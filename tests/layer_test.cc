// Direct tests of the accelerator layer's DecodeUnit semantics:
// pass structure, chaining credit, loop accounting, cost-only mode, and
// the loop-level route of DOT LOOP descriptors.

#include <cmath>
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "accel/layer.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
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

// --- the loop-level route of DOT LOOP descriptors ----------------------

/** A conjugated complex DOT iterated over a loop nest. */
struct DotNest
{
    OpCall call;
    LoopSpec loop;
};

/**
 * STAP's weights x snapshots nest over loop (o0, o1, s, c): w[o0][o1][s]
 * against x[o0][o1][c], each @p n complex, into out[o0][o1][s][c]. With
 * @p swapped the steering vectors move along dim 3 and the cells along
 * dim 2.
 */
DotNest
dotNest(std::uint32_t o0, std::uint32_t o1, std::uint32_t s,
        std::uint32_t c, std::uint64_t n, bool swapped = false)
{
    const auto vec = static_cast<std::int64_t>(n * 8);
    const std::int64_t wBlock = s * vec;
    const std::int64_t xBlock = c * vec;
    const std::int64_t oBlock = static_cast<std::int64_t>(s) * c * 8;
    DotNest d;
    d.call.kind = AccelKind::DOT;
    d.call.n = n;
    d.call.complexData = true;
    d.call.conjugate = true;
    const Addr x = static_cast<Addr>(o0 * o1 * wBlock);
    const Addr out = x + static_cast<Addr>(o0 * o1 * xBlock);
    d.call.in0 = {0, {o1 * wBlock, wBlock, vec, 0}};
    d.call.in1 = {x, {o1 * xBlock, xBlock, 0, vec}};
    d.call.out = {out, {o1 * oBlock, oBlock, c * 8, 8}};
    d.loop.dims = {o0, o1, s, c};
    if (swapped) {
        for (OperandRef *op : {&d.call.in0, &d.call.in1, &d.call.out})
            std::swap(op->stride[2], op->stride[3]);
        std::swap(d.loop.dims[2], d.loop.dims[3]);
    }
    return d;
}

/** One pass of the nest as a LOOP descriptor. */
DescriptorProgram
loopProgram(const DotNest &d)
{
    DescriptorProgram prog;
    prog.addLoop(d.loop, 2);
    prog.addComp(d.call);
    prog.addPassEnd();
    return prog;
}

/**
 * The same dots as one pass of explicit COMPs, one per iteration: the
 * layer runs a multi-COMP pass one executeComp at a time.
 */
DescriptorProgram
unrolledProgram(const DotNest &d)
{
    DescriptorProgram prog;
    std::array<std::uint32_t, kMaxLoopDims> idx{};
    for (std::uint64_t it = 0; it < d.loop.iterations(); ++it) {
        OpCall one = d.call;
        one.in0 = {d.call.in0.at(idx), {}};
        one.in1 = {d.call.in1.at(idx), {}};
        one.out = {d.call.out.at(idx), {}};
        prog.addComp(one);
        for (unsigned dim = kMaxLoopDims; dim-- > 0;) {
            if (++idx[dim] < d.loop.dims[dim])
                break;
            idx[dim] = 0;
        }
    }
    prog.addPassEnd();
    return prog;
}

/**
 * Random floats over [0, bytes): +-{1, 3} x 2^{-24, 0, 24}. Products
 * span 2^+-48, so the f64 sums round, and equal large terms of opposite
 * sign cancel often enough that any change in the order of a dot's
 * sums shows in its f32 result.
 */
void
fillRandom(dram::PhysMem &mem, std::uint64_t bytes, std::uint64_t seed)
{
    Rng rng(seed);
    float *f = mem.ptr<float>(0, bytes / 4);
    for (std::uint64_t i = 0; i < bytes / 4; ++i) {
        const float m = rng.uniform() < 0.5 ? 1.0f : 3.0f;
        const int e =
            24 * static_cast<int>(std::floor(rng.uniform() * 3)) - 24;
        f[i] = std::ldexp(rng.uniform() < 0.5 ? -m : m, e);
    }
}

class DotLoopTest : public ::testing::Test
{
  protected:
    DotLoopTest()
        : layer_(dram::hmcStack(), noc::mealibMesh(), /*functional=*/true)
    {
        saved_ = kernelTuning();
        kernelTuning().parallelCutoff = 1; // fan out even tiny nests
    }

    ~DotLoopTest() override { kernelTuning() = saved_; }

    /**
     * Run @p d both ways at every SIMD level; the loop route at 1, 2 and
     * 8 threads. Each run starts from the same arena, and the arenas
     * after both runs must be equal byte for byte.
     */
    void
    expectSameAsPerIteration(const DotNest &d, std::uint64_t seed)
    {
        const DescriptorProgram loop = loopProgram(d);
        const DescriptorProgram unrolled = unrolledProgram(d);
        for (simd::SimdLevel level : simd::availableLevels()) {
            kernelTuning().simd = level;
            kernelTuning().numThreads = 1;
            dram::PhysMem want(kArena);
            fillRandom(want, kInputBytes, seed);
            layer_.execute(unrolled, want);
            for (int threads : {1, 2, 8}) {
                kernelTuning().numThreads = threads;
                dram::PhysMem got(kArena);
                fillRandom(got, kInputBytes, seed);
                layer_.execute(loop, got);
                EXPECT_EQ(std::memcmp(got.raw(0, kArena),
                                      want.raw(0, kArena), kArena),
                          0)
                    << simd::name(level) << " threads=" << threads
                    << " n=" << d.call.n << " dims=" << d.loop.dims[0]
                    << "x" << d.loop.dims[1] << "x" << d.loop.dims[2]
                    << "x" << d.loop.dims[3];
            }
        }
    }

    static constexpr std::uint64_t kArena = 256_KiB;
    /** Randomized prefix: all inputs, and outputs start as junk too. */
    static constexpr std::uint64_t kInputBytes = 192_KiB;

    AcceleratorLayer layer_;
    KernelTuning saved_;
};

TEST_F(DotLoopTest, MatchesPerIterationCompsAtEveryLevelAndThreadCount)
{
    std::uint64_t seed = 1;
    for (std::uint64_t n : {1, 2, 3, 4, 5, 42, 43, 65}) {
        // 5 x 11 leaves ragged edges for every tile shape; 8 x 16 none.
        for (auto [s, c] : {std::pair<std::uint32_t, std::uint32_t>{5, 11},
                            {8, 16}}) {
            const DotNest d = dotNest(2, 3, s, c, n);
            ASSERT_TRUE(AcceleratorLayer::runsAsDotLoop(d.call, d.loop));
            expectSameAsPerIteration(d, seed++);
        }
        const DotNest swapped = dotNest(1, 2, 7, 3, n, /*swapped=*/true);
        ASSERT_TRUE(
            AcceleratorLayer::runsAsDotLoop(swapped.call, swapped.loop));
        expectSameAsPerIteration(swapped, seed++);
    }
}

TEST_F(DotLoopTest, NonProductNestRunsPerIteration)
{
    // x moves along dim 2 as well: each dot pairs a distinct (w, x), so
    // the nest is no product and keeps the per-iteration route.
    DotNest d = dotNest(1, 2, 6, 6, 42);
    d.call.in1.stride[2] = d.call.in1.stride[3];
    d.call.in1.stride[3] = 0;
    EXPECT_FALSE(AcceleratorLayer::runsAsDotLoop(d.call, d.loop));
    expectSameAsPerIteration(d, 7);
}

TEST_F(DotLoopTest, OtherShapesKeepThePerIterationRoute)
{
    const DotNest base = dotNest(2, 2, 4, 4, 8);
    ASSERT_TRUE(AcceleratorLayer::runsAsDotLoop(base.call, base.loop));
    auto without = [&](auto change) {
        DotNest d = base;
        change(d);
        return AcceleratorLayer::runsAsDotLoop(d.call, d.loop);
    };
    EXPECT_FALSE(without([](DotNest &d) { d.call.conjugate = false; }));
    EXPECT_FALSE(without([](DotNest &d) { d.call.complexData = false; }));
    EXPECT_FALSE(without([](DotNest &d) { d.call.inc1 = 2; }));
    EXPECT_FALSE(without([](DotNest &d) { d.call.n = 0; }));
    EXPECT_FALSE(without([](DotNest &d) { d.loop.dims = {1, 1, 1, 1}; }));
    // Two iterations write one output.
    EXPECT_FALSE(without([](DotNest &d) { d.call.out.stride[3] = 0; }));
    // The output overlaps an input.
    EXPECT_FALSE(without([](DotNest &d) { d.call.out.base = 64; }));
    // A misaligned operand.
    EXPECT_FALSE(without([](DotNest &d) { d.call.in1.base += 2; }));
}

TEST_F(DotLoopTest, LoopPastTheArenaIsFatal)
{
    // The second outer iteration writes its products past the arena.
    DotNest d = dotNest(2, 1, 4, 4, 42);
    d.call.out.stride[0] = static_cast<std::int64_t>(kArena);
    ASSERT_TRUE(AcceleratorLayer::runsAsDotLoop(d.call, d.loop));
    const Addr out = d.call.out.base;
    for (simd::SimdLevel level : simd::availableLevels()) {
        kernelTuning().simd = level;
        dram::PhysMem mem(kArena);
        fillRandom(mem, out, 3);
        EXPECT_THROW(layer_.execute(loopProgram(d), mem), FatalError)
            << simd::name(level);
        if (level == simd::SimdLevel::Scalar)
            continue;
        // The loop route checks every extent before it writes: the
        // first outer iteration's products were not written either.
        const std::uint8_t *p = mem.raw(out, 16 * 8);
        for (int i = 0; i < 16 * 8; ++i)
            ASSERT_EQ(p[i], 0) << simd::name(level) << " byte " << i;
    }
}

} // namespace
} // namespace mealib::accel

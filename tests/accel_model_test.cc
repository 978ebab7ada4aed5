// Tests for the accelerator analytical models: roofline behaviour,
// bandwidth sensitivity, design-space monotonicity, power/area tables.

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "accel/config.hh"
#include "accel/model.hh"
#include "common/logging.hh"
#include "dram/params.hh"
#include "noc/mesh.hh"

namespace mealib::accel {
namespace {

OpCall
axpyCall(std::uint64_t n)
{
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = n;
    return c;
}

OpCall
fftCall(std::uint64_t n, std::uint64_t batch = 1)
{
    OpCall c;
    c.kind = AccelKind::FFT;
    c.n = n;
    c.m = batch;
    c.complexData = true;
    return c;
}

AccelModel
makeModel(AccelKind kind, const dram::DramParams &d)
{
    return AccelModel(kind, defaultConfig(kind), d, noc::mealibMesh());
}

TEST(OpCall, FlopsAndTraffic)
{
    OpCall a = axpyCall(1000);
    EXPECT_DOUBLE_EQ(a.flops(), 2000.0);
    EXPECT_DOUBLE_EQ(a.trafficBytes(), 12000.0);

    OpCall f = fftCall(1024);
    EXPECT_DOUBLE_EQ(f.flops(), 5.0 * 1024 * 10);

    OpCall r;
    r.kind = AccelKind::RESHP;
    r.m = 100;
    r.n = 200;
    EXPECT_DOUBLE_EQ(r.flops(), 0.0);
    EXPECT_DOUBLE_EQ(r.trafficBytes(), 100.0 * 200 * 4 * 2);
}

TEST(AccelModel, StreamingOpIsMemoryBound)
{
    AccelModel m = makeModel(AccelKind::AXPY, dram::hmcStack());
    AccelEstimate e = m.estimate(axpyCall(16 << 20));
    EXPECT_GT(e.memSeconds, e.computeSeconds);
    // Achieved bandwidth within [50%, 100%] of the 510 GB/s stack.
    EXPECT_GT(e.achievedBw, 0.5 * 510e9);
    EXPECT_LE(e.achievedBw, 512e9 * 1.01);
}

TEST(AccelModel, MoreBandwidthMoreSpeed)
{
    AccelEstimate hmc =
        makeModel(AccelKind::AXPY, dram::hmcStack())
            .estimate(axpyCall(16 << 20));
    AccelEstimate ddr =
        makeModel(AccelKind::AXPY, dram::ddr3(2))
            .estimate(axpyCall(16 << 20));
    // 510 GB/s vs 25.6 GB/s should be roughly an order of magnitude.
    EXPECT_GT(ddr.total.seconds / hmc.total.seconds, 8.0);
}

TEST(AccelModel, MsasSitsBetweenPsasAndMealib)
{
    OpCall c = axpyCall(16 << 20);
    double t_psas =
        makeModel(AccelKind::AXPY, dram::ddr3(2)).estimate(c).total.seconds;
    double t_msas =
        makeModel(AccelKind::AXPY, dram::ddr3(8)).estimate(c).total.seconds;
    double t_mea =
        makeModel(AccelKind::AXPY, dram::hmcStack()).estimate(c).total.seconds;
    EXPECT_GT(t_psas, t_msas);
    EXPECT_GT(t_msas, t_mea);
}

TEST(AccelModel, SpmvSlowerPerByteThanAxpy)
{
    OpCall s;
    s.kind = AccelKind::SPMV;
    s.m = 1 << 18;
    s.n = 1 << 18;
    s.k = 1 << 21; // ~8 nnz per row
    AccelEstimate es =
        makeModel(AccelKind::SPMV, dram::hmcStack()).estimate(s);
    AccelEstimate ea =
        makeModel(AccelKind::AXPY, dram::hmcStack())
            .estimate(axpyCall(16 << 20));
    // The gather destroys row locality: effective bandwidth must be
    // well below the streaming case.
    EXPECT_LT(es.achievedBw, 0.6 * ea.achievedBw);
}

TEST(AccelModel, LoopAggregatesIterations)
{
    AccelModel m = makeModel(AccelKind::DOT, dram::hmcStack());
    OpCall c;
    c.kind = AccelKind::DOT;
    c.n = 1024;
    LoopSpec loop;
    loop.dims = {64, 1, 1, 1};
    AccelEstimate one = m.estimate(c);
    AccelEstimate many = m.estimate(c, loop);
    EXPECT_NEAR(many.flops / one.flops, 64.0, 0.01);
    EXPECT_GT(many.total.seconds, one.total.seconds);
}

TEST(AccelModel, FftSmallFitsLocalMemorySinglePass)
{
    AccelModel m = makeModel(AccelKind::FFT, dram::hmcStack());
    // 8 MiB of local memory (32 tiles x 256 KiB): a 256-point transform
    // needs one pass, a 16M-point transform needs two.
    AccelEstimate small = m.estimate(fftCall(1 << 18));
    AccelEstimate large = m.estimate(fftCall(1 << 24));
    double bytes_small = static_cast<double>((1 << 18)) * 8 * 2;
    double bytes_large = static_cast<double>((1 << 24)) * 8 * 4;
    EXPECT_NEAR(small.bytes, bytes_small, bytes_small * 0.01);
    EXPECT_NEAR(large.bytes, bytes_large, bytes_large * 0.01);
}

TEST(AccelModel, HigherFrequencyNeverSlower)
{
    dram::DramParams d = dram::hmcStack();
    AccelConfig slow = defaultConfig(AccelKind::FFT);
    slow.freq = 0.8_GHz;
    AccelConfig fast = slow;
    fast.freq = 2.0_GHz;
    AccelModel ms(AccelKind::FFT, slow, d, noc::mealibMesh());
    AccelModel mf(AccelKind::FFT, fast, d, noc::mealibMesh());
    OpCall c = fftCall(1 << 20);
    EXPECT_LE(mf.estimate(c).total.seconds,
              ms.estimate(c).total.seconds * 1.0001);
}

TEST(AccelModel, HigherFrequencyMorePower)
{
    AccelConfig slow = defaultConfig(AccelKind::FFT);
    slow.freq = 0.8_GHz;
    AccelConfig fast = slow;
    fast.freq = 2.0_GHz;
    EXPECT_LT(logicPowerW(AccelKind::FFT, slow),
              logicPowerW(AccelKind::FFT, fast));
}

TEST(Config, Table5AreasAtDefaults)
{
    // Table 5 areas at the default configurations.
    EXPECT_NEAR(areaMm2(AccelKind::AXPY, defaultConfig(AccelKind::AXPY)),
                1.38, 0.01);
    EXPECT_NEAR(areaMm2(AccelKind::SPMV, defaultConfig(AccelKind::SPMV)),
                14.17, 0.01);
    EXPECT_NEAR(areaMm2(AccelKind::FFT, defaultConfig(AccelKind::FFT)),
                16.13, 0.01);
}

TEST(Config, TotalAreaMatchesTable5Budget)
{
    // Accelerators + NoC + TSVs = 41.77 mm^2, 61.43% of 68 mm^2.
    double total = 0.0;
    for (std::size_t k = 0; k < static_cast<std::size_t>(AccelKind::kCount);
         ++k) {
        auto kind = static_cast<AccelKind>(k);
        total += areaMm2(kind, defaultConfig(kind));
    }
    noc::Mesh mesh(noc::mealibMesh());
    total += mesh.areaMm2() + kTsvAreaMm2;
    EXPECT_NEAR(total, 41.77, 0.5);
    EXPECT_NEAR(total / kLayerAreaMm2, 0.6143, 0.01);
}

TEST(AccelModel, PowerInTable5Band)
{
    // Logic + DRAM power for the default AXPY configuration should land
    // near the Table 5 value of 23.56 W.
    AccelModel m = makeModel(AccelKind::AXPY, dram::hmcStack());
    AccelEstimate e = m.estimate(axpyCall(32 << 20));
    EXPECT_GT(e.powerW(), 18.0);
    EXPECT_LT(e.powerW(), 28.0);
}

TEST(AccelModel, ReshpReportsBandwidthNotFlops)
{
    AccelModel m = makeModel(AccelKind::RESHP, dram::hmcStack());
    OpCall c;
    c.kind = AccelKind::RESHP;
    c.m = 4096;
    c.n = 4096;
    AccelEstimate e = m.estimate(c);
    EXPECT_DOUBLE_EQ(e.gflops(), 0.0);
    EXPECT_GT(e.gbps(), 10.0);
}

TEST(AccelModel, EmptyLoopIsFatal)
{
    AccelModel m = makeModel(AccelKind::AXPY, dram::hmcStack());
    LoopSpec bad;
    bad.dims = {0, 1, 1, 1};
    EXPECT_THROW(m.estimate(axpyCall(1024), bad), FatalError);
}

// --- DRAM trace pricing memo ------------------------------------------

/** Every field of two estimates, compared as bit patterns. */
void
expectBitEqual(const AccelEstimate &a, const AccelEstimate &b)
{
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    EXPECT_EQ(bits(a.total.seconds), bits(b.total.seconds));
    EXPECT_EQ(bits(a.total.joules), bits(b.total.joules));
    EXPECT_EQ(bits(a.memSeconds), bits(b.memSeconds));
    EXPECT_EQ(bits(a.computeSeconds), bits(b.computeSeconds));
    EXPECT_EQ(bits(a.dramEnergyJ), bits(b.dramEnergyJ));
    EXPECT_EQ(bits(a.logicEnergyJ), bits(b.logicEnergyJ));
    EXPECT_EQ(bits(a.nocEnergyJ), bits(b.nocEnergyJ));
    EXPECT_EQ(bits(a.achievedBw), bits(b.achievedBw));
    EXPECT_EQ(bits(a.flops), bits(b.flops));
    EXPECT_EQ(bits(a.bytes), bits(b.bytes));
}

/** A call of @p kind at one of two shapes (@p large picks the bigger). */
OpCall
shapedCall(AccelKind kind, bool large)
{
    const std::uint64_t s = large ? 4 : 1;
    OpCall c;
    c.kind = kind;
    switch (kind) {
      case AccelKind::AXPY:
      case AccelKind::DOT:
        c.n = s << 16;
        break;
      case AccelKind::GEMV:
        c.m = s * 256;
        c.n = 1024;
        break;
      case AccelKind::SPMV:
        c.m = s << 12;
        c.n = s << 14;
        c.k = s << 16;
        break;
      case AccelKind::RESMP:
        c.n = s << 14;
        c.m = s << 15;
        c.complexData = true;
        break;
      case AccelKind::FFT:
        c.n = s << 12;
        c.m = 4;
        c.k = large ? 16 : 0;
        c.complexData = true;
        break;
      case AccelKind::RESHP:
        c.m = s * 512;
        c.n = 1024;
        break;
      default:
        ADD_FAILURE() << "no shape for kind";
    }
    return c;
}

TEST(TraceMemo, RepeatIsBitEqualToFreshModel)
{
    LoopSpec loop;
    loop.dims = {3, 2, 1, 1};
    for (unsigned k = 0; k < static_cast<unsigned>(AccelKind::kCount); ++k) {
        const auto kind = static_cast<AccelKind>(k);
        AccelModel m = makeModel(kind, dram::hmcStack());
        for (bool large : {false, true}) {
            SCOPED_TRACE(std::string(name(kind)) +
                         (large ? " large" : " small"));
            OpCall c = shapedCall(kind, large);
            c.in0.stride[0] = 4096; // in0 moves in dim 0 only
            c.out.stride = {4096, 1 << 20, 0, 0};
            AccelEstimate first = m.estimate(c, loop);
            AccelEstimate repeat = m.estimate(c, loop);
            AccelEstimate fresh =
                makeModel(kind, dram::hmcStack()).estimate(c, loop);
            expectBitEqual(first, fresh);
            expectBitEqual(repeat, fresh);
        }
    }
}

TEST(TraceMemo, BasesScalarsAndIncrementsDoNotShapeThePrice)
{
    AccelModel m = makeModel(AccelKind::AXPY, dram::hmcStack());
    OpCall c = axpyCall(1 << 18);
    AccelEstimate before = m.estimate(c);

    OpCall moved = c;
    moved.in0.base = 3_GiB + 4096;
    moved.out.base = 1_GiB + 64;
    moved.alpha = -2.5f;
    moved.beta = 0.75f;
    moved.inc0 = 3;
    moved.inc1 = -1;
    AccelEstimate after = m.estimate(moved);
    expectBitEqual(after, before);
    // ...and a model that never saw the first call agrees.
    expectBitEqual(
        after, makeModel(AccelKind::AXPY, dram::hmcStack()).estimate(moved));
}

TEST(TraceMemo, StrideChangeIsPricedAfresh)
{
    AccelModel m = makeModel(AccelKind::DOT, dram::hmcStack());
    LoopSpec loop;
    loop.dims = {1, 8, 1, 1};
    OpCall c;
    c.kind = AccelKind::DOT;
    c.n = 1 << 16;
    c.in1.stride = {0, 4 << 16, 0, 0};
    AccelEstimate reused = m.estimate(c, loop); // in0 reused 8 times

    OpCall strided = c;
    strided.in0.stride[1] = 4 << 16; // in0 now moves too
    AccelEstimate moved = m.estimate(strided, loop);
    expectBitEqual(moved, makeModel(AccelKind::DOT, dram::hmcStack())
                              .estimate(strided, loop));
    EXPECT_GT(moved.bytes, reused.bytes);
}

TEST(TraceMemo, LocalMemorySizeIsPartOfTheModel)
{
    const dram::DramParams d = dram::hmcStack();
    OpCall fft = fftCall(1 << 18); // 2 MiB: fits 8 MiB of LM, not 512 KiB
    OpCall spmv;
    spmv.kind = AccelKind::SPMV;
    spmv.m = 1 << 16;
    spmv.n = 1 << 20;
    spmv.k = 1 << 20;
    for (const OpCall &c : {fft, spmv}) {
        SCOPED_TRACE(name(c.kind));
        AccelConfig small = defaultConfig(c.kind);
        AccelConfig big = small;
        small.localMemKiB = 16;
        big.localMemKiB = 256;
        AccelModel ms(c.kind, small, d, noc::mealibMesh());
        AccelModel mb(c.kind, big, d, noc::mealibMesh());
        AccelEstimate es = ms.estimate(c);
        AccelEstimate eb = mb.estimate(c);
        expectBitEqual(eb, AccelModel(c.kind, big, d, noc::mealibMesh())
                               .estimate(c));
        EXPECT_LT(eb.bytes, es.bytes);
    }
}

TEST(TraceMemo, EvictionKeepsResultsExact)
{
    AccelModel m = makeModel(AccelKind::AXPY, dram::hmcStack());
    const std::size_t shapes = AccelModel::kTraceMemoCap + 9;
    std::vector<AccelEstimate> first;
    for (std::size_t i = 0; i < shapes; ++i)
        first.push_back(m.estimate(axpyCall(1024 * (i + 1))));
    // The oldest shapes were evicted; all are priced again in order,
    // evicting as they go, and must not change.
    for (std::size_t i = 0; i < shapes; ++i) {
        SCOPED_TRACE(i);
        OpCall c = axpyCall(1024 * (i + 1));
        expectBitEqual(m.estimate(c), first[i]);
        expectBitEqual(
            first[i],
            makeModel(AccelKind::AXPY, dram::hmcStack()).estimate(c));
    }
}

TEST(TraceMemo, ConcurrentEstimatesAgreeWithSerialOnes)
{
    AccelModel shared = makeModel(AccelKind::FFT, dram::hmcStack());
    std::vector<AccelEstimate> serial;
    for (std::uint64_t i = 0; i < 6; ++i)
        serial.push_back(makeModel(AccelKind::FFT, dram::hmcStack())
                             .estimate(fftCall(1024 << i)));

    std::vector<std::vector<AccelEstimate>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            for (int rep = 0; rep < 3; ++rep)
                for (std::uint64_t i = 0; i < serial.size(); ++i)
                    got[t].push_back(shared.estimate(fftCall(1024 << i)));
        });
    for (std::thread &th : threads)
        th.join();
    for (const auto &g : got)
        for (std::size_t j = 0; j < g.size(); ++j)
            expectBitEqual(g[j], serial[j % serial.size()]);
}

} // namespace
} // namespace mealib::accel

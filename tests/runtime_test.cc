// Integration tests for the MEALib runtime: shared memory management,
// descriptor execution through the full plan/execute/destroy flow, and
// the functional correctness of accelerator-executed kernels.

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "minimkl/fft.hh"
#include "minimkl/sparse.hh"
#include "runtime/runtime.hh"

namespace mealib::runtime {
namespace {

using accel::AccelKind;
using accel::DescriptorProgram;
using accel::LoopSpec;
using accel::OpCall;
using mkl::cfloat;

RuntimeConfig
smallConfig()
{
    RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    return cfg;
}

TEST(RuntimeConfig, ValidationRejectsInconsistentConfigs)
{
    RuntimeConfig cfg = smallConfig();
    EXPECT_TRUE(cfg.validate().ok());

    // validate() reports instead of throwing, so an embedding system
    // can reject a bad config and survive; the runtime constructor
    // turns the report into a recoverable MealibError.
    RuntimeConfig no_stacks = smallConfig();
    no_stacks.numStacks = 0;
    EXPECT_EQ(no_stacks.validate().code(), ErrorCode::InvalidArgument);
    EXPECT_THROW(MealibRuntime{no_stacks}, MealibError);

    RuntimeConfig no_arena = smallConfig();
    no_arena.backingBytes = 0;
    EXPECT_EQ(no_arena.validate().code(), ErrorCode::InvalidArgument);
    EXPECT_THROW(MealibRuntime{no_arena}, MealibError);

    RuntimeConfig no_cmd = smallConfig();
    no_cmd.commandBytes = 0;
    EXPECT_EQ(no_cmd.validate().code(), ErrorCode::InvalidArgument);
    EXPECT_THROW(MealibRuntime{no_cmd}, MealibError);

    // Command space must leave room in stack 0's share of the arena.
    RuntimeConfig swallowed = smallConfig();
    swallowed.numStacks = 4;
    swallowed.commandBytes = swallowed.backingBytes / 4;
    EXPECT_EQ(swallowed.validate().code(), ErrorCode::InvalidArgument);
    EXPECT_THROW(MealibRuntime{swallowed}, MealibError);

    RuntimeConfig no_depth = smallConfig();
    no_depth.queueDepth = 0;
    EXPECT_EQ(no_depth.validate().code(), ErrorCode::InvalidArgument);
    EXPECT_THROW(MealibRuntime{no_depth}, MealibError);
}

TEST(RuntimeConfig, ValidationMessagesAreDescriptive)
{
    RuntimeConfig bad = smallConfig();
    bad.numStacks = 0;
    const Status s = bad.validate();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("numStacks"), std::string::npos);
    try {
        MealibRuntime rt{bad};
        FAIL() << "expected MealibError";
    } catch (const MealibError &e) {
        EXPECT_NE(std::string(e.what()).find("numStacks"),
                  std::string::npos);
    }
}

TEST(RuntimeConfig, ValidationRejectsBadIntegrityAndHealthSettings)
{
    RuntimeConfig bad_price = smallConfig();
    bad_price.integrity.verifyTransfers = true;
    bad_price.integrity.checksumSecondsPerByte = -1.0;
    EXPECT_EQ(bad_price.validate().code(),
              ErrorCode::InvalidArgument);

    RuntimeConfig bad_journal = smallConfig();
    bad_journal.checkpoint.intervalComps = 4;
    bad_journal.checkpoint.journalJPerByte = -1.0;
    EXPECT_EQ(bad_journal.validate().code(),
              ErrorCode::InvalidArgument);

    RuntimeConfig bad_threshold = smallConfig();
    bad_threshold.health.quarantineThreshold = 1.5;
    EXPECT_EQ(bad_threshold.validate().code(),
              ErrorCode::InvalidArgument);
    EXPECT_THROW(MealibRuntime{bad_threshold}, MealibError);

    RuntimeConfig bad_window = smallConfig();
    bad_window.health.quarantineThreshold = 0.5;
    bad_window.health.windowCommands = 0;
    EXPECT_EQ(bad_window.validate().code(),
              ErrorCode::InvalidArgument);
}

TEST(Runtime, MemAllocVirtualPhysicalRoundTrip)
{
    MealibRuntime rt(smallConfig());
    void *p = rt.memAlloc(4096);
    ASSERT_NE(p, nullptr);
    Addr phys = rt.physOf(p);
    EXPECT_EQ(rt.virtOf(phys), p);
    // Data space starts after the command space.
    EXPECT_GE(phys, 1_MiB);
    rt.memFree(p);
}

TEST(Runtime, PhysOfForeignPointerIsFatal)
{
    MealibRuntime rt(smallConfig());
    int x = 0;
    EXPECT_THROW(rt.physOf(&x), FatalError);
}

TEST(Runtime, AxpyThroughDescriptor)
{
    MealibRuntime rt(smallConfig());
    const std::int64_t n = 10000;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * 4));
    for (std::int64_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(i);
        y[i] = 1.0f;
    }

    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = n;
    c.alpha = 2.0f;
    c.beta = 1.0f; // y := 2x + y
    c.in0.base = rt.physOf(x);
    c.out.base = rt.physOf(y);

    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    AccPlanHandle h = rt.accPlan(prog);
    accel::ExecStats es = rt.accExecute(h);
    rt.accDestroy(h);

    for (std::int64_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(y[i], 2.0f * static_cast<float>(i) + 1.0f)
            << "i=" << i;
    EXPECT_GT(es.total.seconds, 0.0);
    EXPECT_GT(es.total.joules, 0.0);
    EXPECT_EQ(es.compsExecuted, 1u);
}

TEST(Runtime, DotWithLoopStrides)
{
    // 8 dot products over stride-separated slices via one LOOP
    // descriptor — the compacted STAP pattern.
    MealibRuntime rt(smallConfig());
    const std::int64_t n = 256, iters = 8;
    auto *x = static_cast<float *>(rt.memAlloc(n * iters * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * iters * 4));
    auto *r = static_cast<float *>(rt.memAlloc(iters * 4));
    Rng rng(1);
    for (std::int64_t i = 0; i < n * iters; ++i) {
        x[i] = rng.uniform(-1.0f, 1.0f);
        y[i] = rng.uniform(-1.0f, 1.0f);
    }

    OpCall c;
    c.kind = AccelKind::DOT;
    c.n = n;
    c.in0 = {rt.physOf(x), {n * 4, 0, 0, 0}};
    c.in1 = {rt.physOf(y), {n * 4, 0, 0, 0}};
    c.out = {rt.physOf(r), {4, 0, 0, 0}};

    LoopSpec loop;
    loop.dims = {static_cast<std::uint32_t>(iters), 1, 1, 1};
    DescriptorProgram prog;
    prog.addLoop(loop, 2);
    prog.addComp(c);
    prog.addPassEnd();

    AccPlanHandle h = rt.accPlan(prog);
    accel::ExecStats es = rt.accExecute(h);
    rt.accDestroy(h);
    EXPECT_EQ(es.compsExecuted, static_cast<std::uint64_t>(iters));

    for (std::int64_t it = 0; it < iters; ++it) {
        double expect = 0.0;
        for (std::int64_t i = 0; i < n; ++i)
            expect += static_cast<double>(x[it * n + i]) *
                      static_cast<double>(y[it * n + i]);
        EXPECT_NEAR(r[it], expect, 1e-3) << "iteration " << it;
    }
}

TEST(Runtime, ChainedReshapeFftPass)
{
    // RESHP -> FFT chained in one PASS: transpose a matrix, then FFT its
    // rows (the Listing 1 data-copy + FFT pattern).
    MealibRuntime rt(smallConfig());
    const std::int64_t r = 16, cdim = 64;
    auto *in = static_cast<cfloat *>(rt.memAlloc(r * cdim * 8));
    auto *mid = static_cast<cfloat *>(rt.memAlloc(r * cdim * 8));
    auto *out = static_cast<cfloat *>(rt.memAlloc(r * cdim * 8));
    Rng rng(2);
    for (std::int64_t i = 0; i < r * cdim; ++i)
        in[i] = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};

    OpCall reshape;
    reshape.kind = AccelKind::RESHP;
    reshape.m = r;
    reshape.n = cdim;
    reshape.complexData = true;
    reshape.in0.base = rt.physOf(in);
    reshape.out.base = rt.physOf(mid);

    OpCall fft;
    fft.kind = AccelKind::FFT;
    fft.n = r;             // rows of the transposed matrix have length r
    fft.m = cdim;          // one transform per transposed row
    fft.complexData = true;
    fft.in0.base = rt.physOf(mid);
    fft.out.base = rt.physOf(out);

    DescriptorProgram prog;
    prog.addComp(reshape);
    prog.addComp(fft);
    prog.addPassEnd();
    AccPlanHandle h = rt.accPlan(prog);
    rt.accExecute(h);
    rt.accDestroy(h);

    // Oracle: transpose then row FFTs.
    std::vector<cfloat> ref_mid(static_cast<std::size_t>(r * cdim));
    for (std::int64_t i = 0; i < r; ++i)
        for (std::int64_t j = 0; j < cdim; ++j)
            ref_mid[static_cast<std::size_t>(j * r + i)] =
                in[i * cdim + j];
    auto plan = mkl::FftPlan::dft1dBatched(r, cdim, r,
                                           mkl::FftDirection::Forward);
    std::vector<cfloat> ref_out(ref_mid.size());
    plan.execute(ref_mid.data(), ref_out.data());
    for (std::size_t i = 0; i < ref_out.size(); ++i)
        EXPECT_NEAR(std::abs(out[i] - ref_out[i]), 0.0f, 1e-3f);
}

TEST(Runtime, SpmvThroughDescriptor)
{
    MealibRuntime rt(smallConfig());
    Rng rng(3);
    mkl::CsrMatrix mat = mkl::randomGeometricGraph(500, 8.0, rng);
    const std::int64_t rows = mat.rows;
    const std::int64_t nnz = mat.nnz();

    auto *rowptr =
        static_cast<std::int64_t *>(rt.memAlloc((rows + 1) * 8));
    auto *colidx = static_cast<std::int32_t *>(rt.memAlloc(nnz * 4));
    auto *vals = static_cast<float *>(rt.memAlloc(nnz * 4));
    auto *x = static_cast<float *>(rt.memAlloc(rows * 4));
    auto *y = static_cast<float *>(rt.memAlloc(rows * 4));
    std::copy(mat.rowPtr.begin(), mat.rowPtr.end(), rowptr);
    std::copy(mat.colIdx.begin(), mat.colIdx.end(), colidx);
    std::copy(mat.vals.begin(), mat.vals.end(), vals);
    for (std::int64_t i = 0; i < rows; ++i)
        x[i] = rng.uniform(-1.0f, 1.0f);

    OpCall c;
    c.kind = AccelKind::SPMV;
    c.m = static_cast<std::uint64_t>(rows);
    c.n = static_cast<std::uint64_t>(rows);
    c.k = static_cast<std::uint64_t>(nnz);
    c.in0.base = rt.physOf(rowptr);
    c.in1.base = rt.physOf(colidx);
    c.in2.base = rt.physOf(vals);
    c.in3.base = rt.physOf(x);
    c.out.base = rt.physOf(y);

    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    AccPlanHandle h = rt.accPlan(prog);
    rt.accExecute(h);
    rt.accDestroy(h);

    std::vector<float> ref(static_cast<std::size_t>(rows));
    mkl::scsrmv(mat, x, ref.data());
    for (std::int64_t i = 0; i < rows; ++i)
        EXPECT_NEAR(y[i], ref[static_cast<std::size_t>(i)], 1e-4f);
}

TEST(Runtime, InvocationCostsAccumulate)
{
    MealibRuntime rt(smallConfig());
    auto *x = static_cast<float *>(rt.memAlloc(1024 * 4));
    auto *y = static_cast<float *>(rt.memAlloc(1024 * 4));
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = 1024;
    c.in0.base = rt.physOf(x);
    c.out.base = rt.physOf(y);
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();

    AccPlanHandle h = rt.accPlan(prog);
    rt.accExecute(h);
    double inv1 = rt.accounting().invocation().seconds;
    rt.accExecute(h); // plans are reusable (Listing 2)
    double inv2 = rt.accounting().invocation().seconds;
    rt.accDestroy(h);

    EXPECT_GT(inv1, 0.0);
    EXPECT_NEAR(inv2, 2.0 * inv1, inv1 * 0.01);
    // Tiny op: the wbinvd flush should dominate the accelerator time.
    EXPECT_GT(rt.accounting().invocation().seconds,
              rt.accounting().accel().seconds);
}

TEST(Runtime, DestroyedPlanCannotExecute)
{
    MealibRuntime rt(smallConfig());
    auto *x = static_cast<float *>(rt.memAlloc(64));
    auto *y = static_cast<float *>(rt.memAlloc(64));
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = 16;
    c.in0.base = rt.physOf(x);
    c.out.base = rt.physOf(y);
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    AccPlanHandle h = rt.accPlan(prog);
    rt.accDestroy(h);
    EXPECT_THROW(rt.accExecute(h), FatalError);
    EXPECT_THROW(rt.accDestroy(h), FatalError);
}

TEST(Runtime, StackOwnershipReleasedAfterExecute)
{
    MealibRuntime rt(smallConfig());
    auto *x = static_cast<float *>(rt.memAlloc(64));
    auto *y = static_cast<float *>(rt.memAlloc(64));
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = 16;
    c.in0.base = rt.physOf(x);
    c.out.base = rt.physOf(y);
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    AccPlanHandle h = rt.accPlan(prog);
    rt.accExecute(h);
    EXPECT_EQ(rt.stack().owner(), dram::Owner::None);
    // The CPU can re-acquire between invocations.
    rt.stack().acquire(dram::Owner::Cpu);
    rt.stack().release(dram::Owner::Cpu);
    rt.accDestroy(h);
}

TEST(Runtime, HostWorkAccountsSeparately)
{
    MealibRuntime rt(smallConfig());
    host::KernelProfile p;
    p.name = "cherk";
    p.flops = 1e9;
    p.bytesRead = 1e6;
    Cost c = rt.runOnHost(p);
    EXPECT_GT(c.seconds, 0.0);
    EXPECT_DOUBLE_EQ(rt.accounting().host().seconds, c.seconds);
    EXPECT_DOUBLE_EQ(rt.accounting().accel().seconds, 0.0);
}

TEST(Runtime, LoopDescriptorCheaperThanManyDescriptors)
{
    // The Fig. 12b claim in miniature: N invocations through one LOOP
    // descriptor must cost less than N separate invocations.
    const std::int64_t n = 4096;
    const std::uint32_t iters = 16;

    MealibRuntime rt_hw(smallConfig());
    auto *x = static_cast<float *>(rt_hw.memAlloc(n * iters * 4));
    auto *y = static_cast<float *>(rt_hw.memAlloc(n * iters * 4));
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = static_cast<std::uint64_t>(n);
    c.in0 = {rt_hw.physOf(x), {n * 4, 0, 0, 0}};
    c.out = {rt_hw.physOf(y), {n * 4, 0, 0, 0}};

    DescriptorProgram loop_prog;
    LoopSpec loop;
    loop.dims = {iters, 1, 1, 1};
    loop_prog.addLoop(loop, 2);
    loop_prog.addComp(c);
    loop_prog.addPassEnd();
    AccPlanHandle h = rt_hw.accPlan(loop_prog);
    double t_hw = rt_hw.accExecute(h).total.seconds;
    rt_hw.accDestroy(h);

    MealibRuntime rt_sw(smallConfig());
    auto *x2 = static_cast<float *>(rt_sw.memAlloc(n * iters * 4));
    auto *y2 = static_cast<float *>(rt_sw.memAlloc(n * iters * 4));
    double t_sw = 0.0;
    for (std::uint32_t i = 0; i < iters; ++i) {
        OpCall ci;
        ci.kind = AccelKind::AXPY;
        ci.n = static_cast<std::uint64_t>(n);
        ci.in0.base = rt_sw.physOf(x2 + i * n);
        ci.out.base = rt_sw.physOf(y2 + i * n);
        DescriptorProgram p;
        p.addComp(ci);
        p.addPassEnd();
        AccPlanHandle hi = rt_sw.accPlan(p);
        t_sw += rt_sw.accExecute(hi).total.seconds;
        rt_sw.accDestroy(hi);
    }
    EXPECT_GT(t_sw, 2.0 * t_hw);
}

// --- cross-layer energy ledger ---------------------------------------

namespace {

/** One small AXPY descriptor executed on @p rt. */
void
runLedgerAxpy(MealibRuntime &rt)
{
    const std::int64_t n = 8192;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * 4));
    for (std::int64_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(i);
        y[i] = 0.5f;
    }
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = n;
    c.alpha = 3.0f;
    c.beta = 1.0f;
    c.in0.base = rt.physOf(x);
    c.out.base = rt.physOf(y);
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    AccPlanHandle h = rt.accPlan(prog);
    rt.accExecute(h);
    rt.accDestroy(h);
}

} // namespace

TEST(Ledger, TotalsMirrorAccountingExactly)
{
    // The runtime posts to its ledger at exactly the points it updates
    // RuntimeAccounting, so the two views of the run agree bit for bit.
    MealibRuntime rt(smallConfig());
    runLedgerAxpy(rt);

    host::KernelProfile prof;
    prof.name = "stage";
    prof.flops = 1e8;
    prof.bytesRead = 1 << 24;
    prof.bytesWritten = 1 << 22;
    rt.runOnHost(prof);

    const Cost acct = rt.accounting().total();
    const Cost ledger = rt.ledger().total();
    EXPECT_DOUBLE_EQ(ledger.seconds, acct.seconds);
    EXPECT_DOUBLE_EQ(ledger.joules, acct.joules);
    EXPECT_GT(ledger.joules, 0.0);

    // Track view: accel + invocation + host partition the total.
    EXPECT_DOUBLE_EQ(rt.ledger().track("accel").seconds,
                     rt.accounting().accel().seconds);
    EXPECT_DOUBLE_EQ(rt.ledger().track("host").joules,
                     rt.accounting().host().joules);
    EXPECT_DOUBLE_EQ(rt.ledger().track("invocation").joules,
                     rt.accounting().invocation().joules);

    // Component attribution (dram/logic/noc/host/invocation/...) is a
    // partition of the same joules.
    double attributed = 0.0;
    for (const auto &[name, j] :
         rt.ledger().energyByComponent().parts())
        attributed += j;
    EXPECT_NEAR(attributed, ledger.joules, 1e-12 * ledger.joules);
}

TEST(Ledger, ResetAccountingClearsTheLedger)
{
    MealibRuntime rt(smallConfig());
    runLedgerAxpy(rt);
    ASSERT_GT(rt.ledger().total().joules, 0.0);
    rt.resetAccounting();
    EXPECT_DOUBLE_EQ(rt.ledger().total().seconds, 0.0);
    EXPECT_DOUBLE_EQ(rt.ledger().total().joules, 0.0);
    EXPECT_TRUE(rt.ledger().tracks().empty());
}

TEST(Ledger, FaultFallbackPostsToTheHostTrack)
{
    // Every command hangs with a zero retry budget: the work completes
    // on the host and the recovery cost lands on the ledger's host
    // track, keeping the ledger == accounting identity intact.
    RuntimeConfig cfg = smallConfig();
    cfg.fault.seed = 7;
    cfg.fault.hangRate = 1.0;
    cfg.retry.maxRetries = 0;
    MealibRuntime rt(cfg);
    runLedgerAxpy(rt);

    ASSERT_GT(rt.accounting().fallbackCount, 0u);
    const Cost acct = rt.accounting().total();
    const Cost ledger = rt.ledger().total();
    EXPECT_DOUBLE_EQ(ledger.seconds, acct.seconds);
    EXPECT_DOUBLE_EQ(ledger.joules, acct.joules);
    auto ev = rt.ledger().events().find("host/fault_fallback");
    ASSERT_NE(ev, rt.ledger().events().end());
    EXPECT_GE(ev->second.count, 1u);
    EXPECT_GT(rt.ledger().track("host").joules, 0.0);
}

} // namespace
} // namespace mealib::runtime

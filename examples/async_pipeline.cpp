/**
 * @file
 * Asynchronous submission with the command-queue engine
 * (docs/RUNTIME.md): overlap two independent descriptors across two
 * memory stacks, then chain a dependent one and let hazard tracking
 * order it.
 *
 *  1. create a 2-stack runtime and home one working set per stack;
 *  2. accSubmit() both halves — each lands on its local stack's queue
 *     and the two execute concurrently on the simulated timeline;
 *  3. submit a third descriptor that reads both outputs: the runtime
 *     infers the RAW dependencies from the operands and starts it only
 *     after both producers finish — no manual wait needed;
 *  4. Event::wait() / waitAll() advance the host to DONE; the ledger's
 *     makespan shows the wall-clock win over the serial total.
 *
 * Build: cmake --build build --target async_pipeline
 * Run:   ./build/examples/async_pipeline
 */

#include <cstdio>

#include "common/cli.hh"
#include "runtime/runtime.hh"

using namespace mealib;
using accel::AccelKind;
using accel::DescriptorProgram;
using accel::OpCall;

namespace {

constexpr std::int64_t kSlice = 1 << 13; // floats per LOOP iteration
constexpr std::uint32_t kIters = 128;
constexpr std::int64_t kN = kSlice * kIters;

/** y := alpha*x + y as one LOOP descriptor over kIters slices. The
 * LOOP form keeps the submit-time cache flush to a single iteration's
 * footprint, so the invocation cost stays far below the accelerator
 * span — that headroom is what asynchrony overlaps. */
runtime::AccPlanHandle
planAxpy(runtime::MealibRuntime &rt, float alpha, const float *x,
         float *y)
{
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = kSlice;
    c.alpha = alpha;
    c.beta = 1.0f;
    c.in0.base = rt.physOf(x);
    c.in0.stride = {kSlice * 4, 0, 0, 0};
    c.out.base = rt.physOf(y);
    c.out.stride = {kSlice * 4, 0, 0, 0};
    accel::LoopSpec loop;
    loop.dims = {kIters, 1, 1, 1};
    DescriptorProgram prog;
    prog.addLoop(loop, 2);
    prog.addComp(c);
    prog.addPassEnd();
    return rt.accPlan(prog);
}

} // namespace

int
main(int argc, char **argv)
{
    FlagTable("Asynchronous submits overlapping on two stacks.")
        .parseOrExit(argc, argv);
    // 1. Two memory stacks, each with its own in-order command queue.
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    cfg.numStacks = 2;
    runtime::MealibRuntime rt(cfg);

    const std::int64_t n = kN;
    auto *a = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *b = static_cast<float *>(rt.memAllocOn(0, n * 4));
    auto *c = static_cast<float *>(rt.memAllocOn(1, n * 4));
    auto *d = static_cast<float *>(rt.memAllocOn(1, n * 4));
    for (std::int64_t i = 0; i < n; ++i) {
        a[i] = 1.0f;
        b[i] = 2.0f;
        c[i] = 3.0f;
        d[i] = 4.0f;
    }

    // 2. Two independent updates, one per stack. The default locality
    //    scheduler homes each on its output's stack, so they overlap.
    runtime::AccPlanHandle p1 = planAxpy(rt, 2.0f, a, b); // b += 2a
    runtime::AccPlanHandle p2 = planAxpy(rt, 3.0f, c, d); // d += 3c
    runtime::Event e1 = rt.accSubmit(p1);
    runtime::Event e2 = rt.accSubmit(p2);

    // 3. d += b reads p1's output and writes p2's: the runtime sees the
    //    RAW/WAW hazards and starts it after both producers, without
    //    any wait on our part.
    runtime::AccPlanHandle p3 = planAxpy(rt, 1.0f, b, d);
    runtime::Event e3 = rt.accSubmit(p3);

    // 4. Drain the queues and read the ledger.
    rt.waitAll();
    const runtime::RuntimeAccounting &acct = rt.accounting();

    std::printf("d[0] = %.1f (expected %.1f)\n",
                static_cast<double>(d[0]), 4.0 + 3.0 * 3.0 + 4.0);
    std::printf("producers overlapped: e2 started %.3f ms before e1 "
                "finished\n",
                (e1.finishSeconds() - e2.startSeconds()) * 1e3);
    std::printf("consumer waited for both: e3 start %.3f ms >= "
                "max(producer finish) %.3f ms\n",
                e3.startSeconds() * 1e3,
                (e1.finishSeconds() > e2.finishSeconds()
                     ? e1.finishSeconds()
                     : e2.finishSeconds()) *
                    1e3);
    std::printf("serial total %.3f ms, makespan %.3f ms, overlap saved "
                "%.3f ms\n",
                acct.total().seconds * 1e3, acct.makespanSeconds * 1e3,
                acct.overlapSavedSeconds() * 1e3);

    rt.accDestroy(p1);
    rt.accDestroy(p2);
    rt.accDestroy(p3);
    rt.memFree(a);
    rt.memFree(b);
    rt.memFree(c);
    rt.memFree(d);
    return 0;
}

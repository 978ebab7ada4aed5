/**
 * @file
 * Surviving hardware failure with the fault-injection layer
 * (docs/FAULTS.md): the same pipeline keeps producing correct results
 * while a stack dies mid-run, transient faults are retried, and the
 * ledger itemizes what recovery cost.
 *
 *  1. create a 2-stack runtime with seeded transient faults armed and a
 *     scripted whole-stack failure halfway through the run;
 *  2. submit a batch of independent updates — early ones land on both
 *     stacks, then stack 0 dies: its queued commands drain to stack 1
 *     and new submissions steer away on their own;
 *  3. every Event reports how it completed (DONE / RETRIED / FELL_BACK)
 *     and results are bit-identical to a fault-free run — the retry and
 *     fallback machinery re-places cost, never recomputes differently;
 *  4. the accounting's degraded-mode fields (retryCount, fallbackCount,
 *     watchdogFires, fallbackSeconds) price the whole episode.
 *
 * Build: cmake --build build --target degraded_pipeline
 * Run:   ./build/examples/degraded_pipeline
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
constexpr unsigned kBatch = 8;

/** y := alpha*x + y as one LOOP descriptor over kIters slices. */
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
    FlagTable("A pipeline that survives injected faults.")
        .parseOrExit(argc, argv);
    // 1. Two stacks; transient compute faults at 20% per attempt, and
    //    stack 0 scripted to die right before the 4th command. The seed
    //    makes every run of this example inject identical faults.
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    cfg.numStacks = 2;
    cfg.fault.seed = 2026;
    cfg.fault.computeTransientRate = 0.2;
    cfg.fault.failStack = 0;
    cfg.fault.failStackAfter = kBatch / 2;
    cfg.retry.maxRetries = 3;
    runtime::MealibRuntime rt(cfg);

    auto *x = static_cast<float *>(rt.memAllocOn(0, kN * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(0, kN * 4));
    for (std::int64_t i = 0; i < kN; ++i) {
        x[i] = 1.0f;
        y[i] = 0.5f;
    }

    // 2. A batch of independent updates, alternated onto both stacks by
    //    hand. Submissions 0-3 spread normally; the scripted failure
    //    then fires, drains stack 0's backlog to stack 1, and reroutes
    //    the explicit stack-0 requests that follow.
    runtime::AccPlanHandle plan = planAxpy(rt, 1.0f, x, y);
    runtime::Event events[kBatch];
    for (unsigned i = 0; i < kBatch; ++i)
        events[i] = rt.accSubmitOn(plan, i % 2);
    rt.waitAll();

    // 3. Per-command outcome: how each one completed and where.
    for (unsigned i = 0; i < kBatch; ++i) {
        runtime::Event &e = events[i];
        std::printf("command %u: %-9s on %s, %u retr%s\n", i,
                    runtime::name(e.state()),
                    e.stats().fellBack ? "host " : "stack",
                    e.retries(), e.retries() == 1 ? "y" : "ies");
        if (!runtime::completed(e.state()))
            std::printf("  !! %s\n", e.status().toString().c_str());
    }
    std::printf("y[0] = %.1f (expected %.1f — every command applied "
                "exactly once)\n",
                static_cast<double>(y[0]), 0.5 + 1.0 * kBatch);
    std::printf("stack 0 failed: %s, healthy stacks: %u/%u\n",
                rt.stackFailed(0) ? "yes" : "no", rt.healthyStackCount(),
                rt.numStacks());

    // 4. What the episode cost, itemized by the degraded-mode ledger.
    const runtime::RuntimeAccounting &acct = rt.accounting();
    std::printf("recovery: %llu retried attempt(s), %llu host "
                "fallback(s) (%.3f ms), %llu watchdog fire(s)\n",
                static_cast<unsigned long long>(acct.retryCount),
                static_cast<unsigned long long>(acct.fallbackCount),
                acct.fallbackSeconds * 1e3,
                static_cast<unsigned long long>(acct.watchdogFires));
    std::printf("%zu fault(s) injected; makespan %.3f ms vs serial "
                "%.3f ms\n",
                rt.faultModel().history().size(),
                acct.makespanSeconds * 1e3, acct.total().seconds * 1e3);

    rt.accDestroy(plan);
    rt.memFree(x);
    rt.memFree(y);
    return 0;
}

/**
 * @file
 * MEALib quickstart: the minimal end-to-end flow.
 *
 *  1. create a runtime (host model + 3D-stacked accelerator stack);
 *  2. allocate operands in the physically contiguous shared space
 *     (mealib_mem_alloc semantics);
 *  3. describe a computation as an accelerator descriptor — here one
 *     PASS with a single AXPY, then a DOT over the result;
 *  4. plan / execute / destroy (Listing 2 of the paper);
 *  5. read the result back through the host's virtual mapping and
 *     inspect the simulated time/energy.
 *
 * Build: cmake --build build --target quickstart
 * Run:   ./build/examples/quickstart
 */

#include <cstdio>

#include "common/cli.hh"
#include "runtime/runtime.hh"

using namespace mealib;
using accel::AccelKind;
using accel::DescriptorProgram;
using accel::OpCall;

int
main(int argc, char **argv)
{
    FlagTable("Plan, execute and destroy one accelerated AXPY.")
        .parseOrExit(argc, argv);
    // 1. Runtime: Haswell-class host + HMC-like stack, 64 MiB arena.
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    runtime::MealibRuntime rt(cfg);

    // 2. Operands live in the shared physically contiguous data space.
    const std::int64_t n = 1 << 20;
    auto *x = static_cast<float *>(rt.memAlloc(n * sizeof(float)));
    auto *y = static_cast<float *>(rt.memAlloc(n * sizeof(float)));
    auto *dot = static_cast<float *>(rt.memAlloc(sizeof(float)));
    for (std::int64_t i = 0; i < n; ++i) {
        x[i] = 1.0f;
        y[i] = static_cast<float>(i % 7);
    }

    // 3. One descriptor, two passes: y := 2x + y, then dot = x . y.
    OpCall axpy;
    axpy.kind = AccelKind::AXPY;
    axpy.n = static_cast<std::uint64_t>(n);
    axpy.alpha = 2.0f;
    axpy.beta = 1.0f; // axpby semantics: y := alpha*x + beta*y
    axpy.in0.base = rt.physOf(x); // accelerators use physical addresses
    axpy.out.base = rt.physOf(y);

    OpCall sdot;
    sdot.kind = AccelKind::DOT;
    sdot.n = static_cast<std::uint64_t>(n);
    sdot.in0.base = rt.physOf(x);
    sdot.in1.base = rt.physOf(y);
    sdot.out.base = rt.physOf(dot);

    DescriptorProgram prog;
    prog.addComp(axpy);
    prog.addPassEnd();
    prog.addComp(sdot);
    prog.addPassEnd();

    // 4. Plan once, execute (flush caches, write START, wait for DONE).
    runtime::AccPlanHandle plan = rt.accPlan(prog);
    accel::ExecStats stats = rt.accExecute(plan);
    rt.accDestroy(plan);

    // 5. Results are visible through the virtual mapping immediately.
    double expect = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
        expect += 2.0 + static_cast<double>(i % 7);
    std::printf("dot(x, 2x+y) = %.1f (expected %.1f)\n",
                static_cast<double>(*dot), expect);
    std::printf("accelerator time: %.3f ms, energy: %.3f mJ, "
                "invocation overhead: %.3f ms\n",
                stats.total.seconds * 1e3, stats.total.joules * 1e3,
                stats.invocation.seconds * 1e3);
    std::printf("traffic: %.1f MiB at %.1f GB/s effective\n",
                stats.bytesMoved / 1048576.0,
                stats.bytesMoved / stats.total.seconds / 1e9);

    rt.memFree(x);
    rt.memFree(y);
    rt.memFree(dot);
    return 0;
}

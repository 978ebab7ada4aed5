/**
 * @file
 * Conjugate-gradient solver on MEALib — an application beyond the
 * paper's evaluation that exercises the same Table-1 operations (SPMV,
 * DOT, AXPY) and the Listing-2 plan-reuse pattern: the SPMV and DOT
 * descriptors are built once and re-executed every iteration.
 *
 * Run: ./build/examples/cg_solver [--n=20000] [--tol=1e-4]
 */

#include <cmath>
#include <cstdio>

#include "apps/cg.hh"
#include "common/cli.hh"
#include "runtime/runtime.hh"

using namespace mealib;

int
main(int argc, char **argv)
{
    FlagTable table("Conjugate-gradient solve of a random SPD system.");
    const Flag &nRow =
        table.add({"n", FlagType::Int, "20000", "unknowns", 1, 1 << 24});
    const Flag &tol = table.add(
        {"tol", FlagType::Real, "1e-4", "relative residual", 0, HUGE_VAL});
    const Flag &maxIters = table.add(
        {"max-iters", FlagType::Int, "300", "iteration cap", 1, 1e9});
    const Flags flags = table.parseOrExit(argc, argv);
    const std::int64_t n = flags.integer(nRow);
    apps::CgOptions opts;
    opts.tolerance = flags.real(tol);
    opts.maxIterations = static_cast<unsigned>(flags.integer(maxIters));

    std::printf("building SPD system: RGG Laplacian, n = %lld...\n",
                static_cast<long long>(n));
    mkl::CsrMatrix a = apps::cgTestMatrix(n, 2026);
    std::vector<float> b(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        b[static_cast<std::size_t>(i)] =
            std::sin(0.01 * static_cast<double>(i));
    std::printf("  nnz = %lld (avg degree %.1f)\n",
                static_cast<long long>(a.nnz()), a.avgDegree());

    apps::CgResult host = apps::solveCgHost(a, b, opts);
    std::printf("host CG:   %u iterations, ||r|| = %.3e, %s\n",
                host.iterations, host.residualNorm,
                host.converged ? "converged" : "NOT converged");

    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 256_MiB;
    runtime::MealibRuntime rt(cfg);
    apps::CgResult mea = apps::solveCgMealib(a, b, rt, opts);
    std::printf("MEALib CG: %u iterations, ||r|| = %.3e, %s\n",
                mea.iterations, mea.residualNorm,
                mea.converged ? "converged" : "NOT converged");
    std::printf("  %llu plans (%llu executes): SPMV/DOT plans reused "
                "across all iterations\n",
                static_cast<unsigned long long>(mea.descriptors),
                static_cast<unsigned long long>(mea.executes));
    std::printf("  accel %.3f ms + invocation %.3f ms (simulated)\n",
                mea.accel.seconds * 1e3, mea.invocation.seconds * 1e3);

    double maxdiff = 0.0;
    for (std::size_t i = 0; i < host.x.size(); ++i)
        maxdiff = std::max(maxdiff, static_cast<double>(std::fabs(
                                        host.x[i] - mea.x[i])));
    std::printf("solution check: max |host - mealib| = %.2e (%s)\n",
                maxdiff, maxdiff == 0.0 ? "bit-identical" : "check");

    // Independent residual check against the original system.
    std::vector<float> ax(static_cast<std::size_t>(n));
    mkl::scsrmv(a, mea.x.data(), ax.data());
    double rn = 0.0, bn = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        double d = static_cast<double>(b[i]) - ax[i];
        rn += d * d;
        bn += static_cast<double>(b[i]) * b[i];
    }
    std::printf("verified relative residual: %.3e (tolerance %.1e)\n",
                std::sqrt(rn / bn), opts.tolerance);
    return host.converged && mea.converged && maxdiff == 0.0 ? 0 : 1;
}

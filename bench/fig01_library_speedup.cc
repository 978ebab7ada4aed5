/**
 * @file
 * Figure 1 reproduction: performance gained by replacing handwritten
 * "original" code with high-performance library calls (the paper's
 * motivation: up to 27x on R benchmarks, 42x on PERFECT, 24x on PARSEC).
 *
 * Two views are printed:
 *  1. modeled speedups on the Haswell model — original code is scalar,
 *     single-threaded and cache-naive; the library is vectorized,
 *     blocked and multithreaded (the paper's single-thread and
 *     multi-thread library bars);
 *  2. measured wall-clock speedups of this repository's own naive
 *     reference kernels vs the optimized MiniMKL kernels, as a sanity
 *     anchor that the effect is real, not just modeled.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "host/cpu.hh"
#include "mealib/platform.hh"
#include "minimkl/fft.hh"
#include "minimkl/naive.hh"
#include "minimkl/transpose.hh"

using namespace mealib;
using mealib::accel::AccelKind;

namespace {

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Modeled original-vs-library speedup for one kernel shape. */
void
modeledRow(bench::Table &t, const char *name, AccelKind kind,
           double scale)
{
    host::CpuModel cpu(host::haswell4770k());
    eval::Workload w = eval::table2Workload(kind, scale);

    // Original: scalar loops, one thread, cache-hostile access. A
    // single unoptimized thread is latency-bound and reaches only a
    // small fraction of the channel bandwidth, and unblocked walks
    // roughly double the traffic.
    host::KernelProfile orig = eval::hostProfile(
        eval::Platform::HaswellMkl, w.call, w.loop);
    orig.simdEff = 0.10;
    orig.parallelFraction = 0.0;
    orig.memEff = 0.12;
    orig.bytesRead *= 2.0;

    host::KernelProfile lib1 = eval::hostProfile(
        eval::Platform::HaswellMkl, w.call, w.loop);
    lib1.parallelFraction = 0.0; // single-thread library

    host::KernelProfile libn = eval::hostProfile(
        eval::Platform::HaswellMkl, w.call, w.loop);

    double t_orig = cpu.run(orig).seconds;
    double t1 = cpu.run(lib1).seconds;
    double tn = cpu.run(libn).seconds;
    t.row({name, accel::name(kind), bench::fmt("%.1fx", t_orig / t1),
           bench::fmt("%.1fx", t_orig / tn)});
}

template <typename F>
double
timeIt(F &&f, int reps = 3)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        double t0 = now();
        f();
        best = std::min(best, now() - t0);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagTable table("Figure 1: library speedup over original code.", "", 0,
                    {"scaled runs", "--paper-scale runs"});
    const Flag &paperScale = table.add(
        {"paper-scale", FlagType::Bool, "", "full Table 2 data sets"});
    const Flag &scaleRow =
        table.add(Flag{"scale", FlagType::Real, "0.0625",
                       "data-set scale relative to Table 2", 1e-9, 1}
                      .in(1));
    const Flags flags = table.parseOrExit(
        argc, argv, [&](const Flags &f) { return f.on(paperScale) ? 2 : 1; });
    const double scale = flags.on(paperScale) ? 1.0 : flags.real(scaleRow);

    bench::banner("Figure 1: speedup of library-based code over "
                  "original code",
                  "R benchmarks up to 27x, PERFECT up to 42x, PARSEC up "
                  "to 24x (single- and multi-threaded library)");

    std::printf("modeled on the Haswell model (original = scalar, "
                "single-thread, unblocked):\n");
    bench::Table tm({"benchmark proxy", "kernel", "1-thread lib",
                     "multi-thread lib"});
    modeledRow(tm, "R: pca / regression", AccelKind::GEMV, scale);
    modeledRow(tm, "R: similarity (dot)", AccelKind::DOT, scale);
    modeledRow(tm, "PERFECT: stap doppler", AccelKind::FFT, scale);
    modeledRow(tm, "PERFECT: sar backproj", AccelKind::RESMP, scale);
    modeledRow(tm, "PERFECT: corner turn", AccelKind::RESHP, scale);
    modeledRow(tm, "PARSEC: streamcluster", AccelKind::AXPY, scale);
    modeledRow(tm, "PARSEC: graph (spmv)", AccelKind::SPMV, scale);
    tm.print();

    std::printf("measured in this build (naive reference vs MiniMKL):\n");
    bench::Table ms({"kernel", "naive (ms)", "library (ms)", "speedup"});
    Rng rng(1);

    { // FFT: recursive textbook CT vs iterative Stockham.
        const std::int64_t n = 1 << 15;
        std::vector<mkl::cfloat> in(n), out(n);
        for (auto &v : in)
            v = {rng.uniform(-1.f, 1.f), rng.uniform(-1.f, 1.f)};
        double t_naive = timeIt([&] {
            mkl::naive::fftRecursive(in.data(), out.data(), n, -1);
        });
        auto plan = mkl::FftPlan::dft1d(n, mkl::FftDirection::Forward);
        double t_lib =
            timeIt([&] { plan.execute(in.data(), out.data()); });
        ms.row({"fft 32768", bench::fmt("%.3f", t_naive * 1e3),
                bench::fmt("%.3f", t_lib * 1e3),
                bench::fmt("%.1fx", t_naive / t_lib)});
    }
    { // small DFT: O(n^2) loop vs O(n log n) library.
        const std::int64_t n = 1 << 11;
        std::vector<mkl::cfloat> in(n), out(n);
        for (auto &v : in)
            v = {rng.uniform(-1.f, 1.f), rng.uniform(-1.f, 1.f)};
        double t_naive = timeIt(
            [&] { mkl::naiveDft(in.data(), out.data(), n,
                                mkl::FftDirection::Forward); },
            1);
        auto plan = mkl::FftPlan::dft1d(n, mkl::FftDirection::Forward);
        double t_lib =
            timeIt([&] { plan.execute(in.data(), out.data()); });
        ms.row({"dft 2048 (O(n^2) original)",
                bench::fmt("%.3f", t_naive * 1e3),
                bench::fmt("%.3f", t_lib * 1e3),
                bench::fmt("%.1fx", t_naive / t_lib)});
    }
    { // transpose: row-column loop vs blocked kernel.
        const std::int64_t d = 2048;
        std::vector<float> a(static_cast<std::size_t>(d * d));
        std::vector<float> b(a.size());
        for (auto &v : a)
            v = rng.uniform(-1.f, 1.f);
        double t_naive = timeIt(
            [&] { mkl::naive::transpose(d, d, a.data(), b.data()); });
        double t_lib = timeIt([&] {
            mkl::somatcopy(mkl::Order::RowMajor, mkl::Transpose::Trans,
                           d, d, 1.0f, a.data(), d, b.data(), d);
        });
        ms.row({"transpose 2048x2048",
                bench::fmt("%.3f", t_naive * 1e3),
                bench::fmt("%.3f", t_lib * 1e3),
                bench::fmt("%.1fx", t_naive / t_lib)});
    }
    ms.print();

    std::printf("paper: 5x .. 42x depending on benchmark suite\n");
    return 0;
}

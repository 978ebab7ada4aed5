/**
 * @file
 * FFT-based circular convolution on MEALib — the spectral-methods
 * pattern (the third of the paper's three accelerated domains): two
 * forward FFTs on the accelerators, a pointwise product on the host
 * (compute-dense, stays there per the paper's split), and an inverse
 * FFT back on the accelerators.
 *
 * Verifies the result against a direct O(n^2) convolution.
 *
 * Run: ./build/examples/fft_convolution [--n=4096]
 */

#include <cmath>
#include <complex>
#include <cstdio>
#include <vector>

#include "common/cli.hh"
#include "minimkl/fft.hh"
#include "runtime/runtime.hh"

using namespace mealib;
using accel::AccelKind;
using accel::DescriptorProgram;
using accel::OpCall;
using mkl::cfloat;

namespace {

OpCall
fftCall(runtime::MealibRuntime &rt, const cfloat *in, cfloat *out,
        std::uint64_t n, int dir)
{
    OpCall c;
    c.kind = AccelKind::FFT;
    c.n = n;
    c.complexData = true;
    c.fftDir = dir;
    c.in0.base = rt.physOf(in);
    c.out.base = rt.physOf(out);
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagTable table("FFT convolution through the accelerated library.");
    const Flag &nRow = table.add(
        {"n", FlagType::Int, "4096", "length, a power of two", 1, 1 << 24});
    const auto n = static_cast<std::uint64_t>(
        table.parseOrExit(argc, argv).integer(nRow));
    if (n == 0 || (n & (n - 1)) != 0) {
        std::fprintf(stderr, "--n must be a power of two\n");
        return 2;
    }

    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    runtime::MealibRuntime rt(cfg);

    auto *a = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *b = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *fa = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *fb = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *prod = static_cast<cfloat *>(rt.memAlloc(n * 8));
    auto *result = static_cast<cfloat *>(rt.memAlloc(n * 8));

    // A smooth signal convolved with a short box kernel.
    for (std::uint64_t i = 0; i < n; ++i) {
        a[i] = {static_cast<float>(
                    std::sin(2.0 * M_PI * 3.0 * static_cast<double>(i) /
                             static_cast<double>(n))),
                0.0f};
        b[i] = i < 8 ? cfloat{1.0f / 8.0f, 0.0f} : cfloat{};
    }

    // Pass 1 (accelerators): both forward transforms in one descriptor.
    DescriptorProgram fwd;
    fwd.addComp(fftCall(rt, a, fa, n, -1));
    fwd.addPassEnd();
    fwd.addComp(fftCall(rt, b, fb, n, -1));
    fwd.addPassEnd();
    auto h_fwd = rt.accPlan(fwd);
    accel::ExecStats s_fwd = rt.accExecute(h_fwd);
    rt.accDestroy(h_fwd);

    // Host: pointwise spectral product (compute-dense, per-element FMA).
    for (std::uint64_t i = 0; i < n; ++i)
        prod[i] = fa[i] * fb[i];

    // Pass 2 (accelerators): inverse transform.
    DescriptorProgram bwd;
    bwd.addComp(fftCall(rt, prod, result, n, +1));
    bwd.addPassEnd();
    auto h_bwd = rt.accPlan(bwd);
    accel::ExecStats s_bwd = rt.accExecute(h_bwd);
    rt.accDestroy(h_bwd);
    mkl::fftNormalize(result, static_cast<std::int64_t>(n),
                      static_cast<std::int64_t>(n));

    // Oracle: direct circular convolution (on a subsample for big n).
    double max_err = 0.0;
    const std::uint64_t check = std::min<std::uint64_t>(n, 512);
    for (std::uint64_t i = 0; i < check; ++i) {
        cfloat acc{};
        for (std::uint64_t k = 0; k < n; ++k)
            acc += a[k] * b[(i + n - k) % n];
        max_err = std::max(max_err,
                           static_cast<double>(std::abs(result[i] - acc)));
    }

    std::printf("circular convolution of %llu points via MEALib FFTs\n",
                static_cast<unsigned long long>(n));
    std::printf("forward pair: %.3f ms, inverse: %.3f ms (simulated)\n",
                s_fwd.total.seconds * 1e3, s_bwd.total.seconds * 1e3);
    std::printf("max |fft-conv - direct-conv| over %llu checked points: "
                "%.3e\n",
                static_cast<unsigned long long>(check), max_err);

    bool ok = max_err < 1e-3;
    std::printf("%s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

#include "minimkl/blas1.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

namespace mealib::mkl {

namespace {

/** BLAS convention: with negative stride the vector starts at the end. */
inline std::int64_t
startIndex(std::int64_t n, std::int64_t inc)
{
    return inc >= 0 ? 0 : (1 - n) * inc;
}

/** Interleaved re/im view of a complex array for the SIMD kernels. */
inline const float *
flat(const cfloat *p)
{
    return reinterpret_cast<const float *>(p);
}

/**
 * Partial state of an slassq-style scaled sum of squares. Combining two
 * partials rescales the smaller-scaled one, which is exactly the LAPACK
 * slassq update applied chunk-wise; the fixed-order tree in
 * deterministicReduce makes the result independent of thread count.
 */
struct Slassq
{
    double scale = 0.0;
    double ssq = 1.0;
};

inline Slassq
slassqCombine(const Slassq &a, const Slassq &b)
{
    if (b.scale == 0.0)
        return a;
    if (a.scale == 0.0)
        return b;
    if (a.scale >= b.scale) {
        double r = b.scale / a.scale;
        return {a.scale, a.ssq + b.ssq * r * r};
    }
    double r = a.scale / b.scale;
    return {b.scale, b.ssq + a.ssq * r * r};
}

} // namespace

void
saxpy(std::int64_t n, float a, const float *x, std::int64_t incx, float *y,
      std::int64_t incy)
{
    if (n <= 0 || a == 0.0f)
        return;
    fatalIf(incx == 0 || incy == 0, "saxpy: zero stride");
    if (incx == 1 && incy == 1) {
        const KernelTuning &t = kernelTuning();
        const simd::Kernels *sk = simd::active();
        parallelFor(0, n, t.threadsFor(n), 4096,
                    [&](std::int64_t b, std::int64_t e) {
                        if (sk) {
                            sk->saxpy(e - b, a, x + b, y + b);
                            return;
                        }
                        for (std::int64_t i = b; i < e; ++i)
                            y[i] += a * x[i];
                    });
        return;
    }
    std::int64_t ix = startIndex(n, incx);
    std::int64_t iy = startIndex(n, incy);
    for (std::int64_t i = 0; i < n; ++i, ix += incx, iy += incy)
        y[iy] += a * x[ix];
}

void
saxpby(std::int64_t n, float a, const float *x, std::int64_t incx,
       float b, float *y, std::int64_t incy)
{
    if (n <= 0)
        return;
    fatalIf(incy == 0, "saxpby: zero stride");
    if (a == 0.0f) {
        // x is unused (and may be null, as MKL tolerates): y := b*y.
        if (b != 1.0f)
            sscal(n, b, y, incy);
        return;
    }
    fatalIf(incx == 0, "saxpby: zero stride");
    if (b == 1.0f) {
        saxpy(n, a, x, incx, y, incy);
        return;
    }
    if (incx == 1 && incy == 1) {
        const KernelTuning &t = kernelTuning();
        const simd::Kernels *sk = simd::active();
        parallelFor(0, n, t.threadsFor(n), 4096,
                    [&](std::int64_t lo, std::int64_t hi) {
                        if (sk) {
                            sk->saxpby(hi - lo, a, x + lo, b, y + lo);
                            return;
                        }
                        for (std::int64_t i = lo; i < hi; ++i)
                            y[i] = a * x[i] + b * y[i];
                    });
        return;
    }
    std::int64_t ix = startIndex(n, incx);
    std::int64_t iy = startIndex(n, incy);
    for (std::int64_t i = 0; i < n; ++i, ix += incx, iy += incy)
        y[iy] = a * x[ix] + b * y[iy];
}

void
sscal(std::int64_t n, float a, float *x, std::int64_t incx)
{
    if (n <= 0)
        return;
    fatalIf(incx == 0, "sscal: zero stride");
    if (incx == 1) {
        const KernelTuning &t = kernelTuning();
        const simd::Kernels *sk = simd::active();
        parallelFor(0, n, t.threadsFor(n), 4096,
                    [&](std::int64_t b, std::int64_t e) {
                        if (sk) {
                            sk->sscal(e - b, a, x + b);
                            return;
                        }
                        for (std::int64_t i = b; i < e; ++i)
                            x[i] *= a;
                    });
        return;
    }
    std::int64_t ix = startIndex(n, incx);
    for (std::int64_t i = 0; i < n; ++i, ix += incx)
        x[ix] *= a;
}

void
scopy(std::int64_t n, const float *x, std::int64_t incx, float *y,
      std::int64_t incy)
{
    if (n <= 0)
        return;
    fatalIf(incx == 0 || incy == 0, "scopy: zero stride");
    if (incx == 1 && incy == 1) {
        const KernelTuning &t = kernelTuning();
        const simd::Kernels *sk = simd::active();
        parallelFor(0, n, t.threadsFor(n), 4096,
                    [&](std::int64_t b, std::int64_t e) {
                        if (sk) {
                            sk->scopy(e - b, x + b, y + b);
                            return;
                        }
                        for (std::int64_t i = b; i < e; ++i)
                            y[i] = x[i];
                    });
        return;
    }
    std::int64_t ix = startIndex(n, incx);
    std::int64_t iy = startIndex(n, incy);
    for (std::int64_t i = 0; i < n; ++i, ix += incx, iy += incy)
        y[iy] = x[ix];
}

float
sdot(std::int64_t n, const float *x, std::int64_t incx, const float *y,
     std::int64_t incy)
{
    if (n <= 0)
        return 0.0f;
    fatalIf(incx == 0 || incy == 0, "sdot: zero stride");
    // Accumulate in double: cheap insurance against cancellation on the
    // 256M-element vectors of Table 2.
    if (incx == 1 && incy == 1) {
        // Fixed-chunk deterministic reduction: the chunk boundaries and
        // the combine tree depend only on n, so the result is
        // bit-identical for any thread count.
        const KernelTuning &t = kernelTuning();
        const simd::Kernels *sk = simd::active();
        double acc = deterministicReduce<double>(
            n, kReduceChunk, t.threadsFor(n),
            [&](std::int64_t b, std::int64_t e) {
                if (sk)
                    return sk->sdot(e - b, x + b, y + b);
                double s = 0.0;
                for (std::int64_t i = b; i < e; ++i)
                    s += static_cast<double>(x[i]) *
                         static_cast<double>(y[i]);
                return s;
            },
            [](double a, double b) { return a + b; });
        return static_cast<float>(acc);
    }
    double acc = 0.0;
    std::int64_t ix = startIndex(n, incx);
    std::int64_t iy = startIndex(n, incy);
    for (std::int64_t i = 0; i < n; ++i, ix += incx, iy += incy)
        acc += static_cast<double>(x[ix]) * static_cast<double>(y[iy]);
    return static_cast<float>(acc);
}

float
snrm2(std::int64_t n, const float *x, std::int64_t incx)
{
    if (n <= 0)
        return 0.0f;
    fatalIf(incx == 0, "snrm2: zero stride");
    // Scaled sum of squares (LAPACK slassq style) to avoid overflow.
    auto chunkSsq = [&](std::int64_t b, std::int64_t e) {
        Slassq s;
        for (std::int64_t i = b; i < e; ++i) {
            double ax = std::fabs(static_cast<double>(x[i]));
            if (ax == 0.0)
                continue;
            if (s.scale < ax) {
                s.ssq = 1.0 + s.ssq * (s.scale / ax) * (s.scale / ax);
                s.scale = ax;
            } else {
                s.ssq += (ax / s.scale) * (ax / s.scale);
            }
        }
        return s;
    };
    if (incx == 1) {
        const KernelTuning &t = kernelTuning();
        const simd::Kernels *sk = simd::active();
        auto chunkFn = [&](std::int64_t b, std::int64_t e) {
            if (sk) {
                Slassq s;
                sk->slassq(e - b, x + b, &s.scale, &s.ssq);
                return s;
            }
            return chunkSsq(b, e);
        };
        Slassq s = deterministicReduce<Slassq>(
            n, kReduceChunk, t.threadsFor(n), chunkFn, slassqCombine);
        return static_cast<float>(s.scale * std::sqrt(s.ssq));
    }
    Slassq s;
    std::int64_t ix = startIndex(n, incx);
    for (std::int64_t i = 0; i < n; ++i, ix += incx) {
        double ax = std::fabs(static_cast<double>(x[ix]));
        if (ax == 0.0)
            continue;
        if (s.scale < ax) {
            s.ssq = 1.0 + s.ssq * (s.scale / ax) * (s.scale / ax);
            s.scale = ax;
        } else {
            s.ssq += (ax / s.scale) * (ax / s.scale);
        }
    }
    return static_cast<float>(s.scale * std::sqrt(s.ssq));
}

float
sasum(std::int64_t n, const float *x, std::int64_t incx)
{
    if (n <= 0)
        return 0.0f;
    fatalIf(incx == 0, "sasum: zero stride");
    if (incx == 1) {
        const KernelTuning &t = kernelTuning();
        const simd::Kernels *sk = simd::active();
        double acc = deterministicReduce<double>(
            n, kReduceChunk, t.threadsFor(n),
            [&](std::int64_t b, std::int64_t e) {
                if (sk)
                    return sk->sasum(e - b, x + b);
                double s = 0.0;
                for (std::int64_t i = b; i < e; ++i)
                    s += std::fabs(static_cast<double>(x[i]));
                return s;
            },
            [](double a, double b) { return a + b; });
        return static_cast<float>(acc);
    }
    double acc = 0.0;
    std::int64_t ix = startIndex(n, incx);
    for (std::int64_t i = 0; i < n; ++i, ix += incx)
        acc += std::fabs(static_cast<double>(x[ix]));
    return static_cast<float>(acc);
}

std::int64_t
isamax(std::int64_t n, const float *x, std::int64_t incx)
{
    if (n <= 0)
        return -1;
    fatalIf(incx == 0, "isamax: zero stride");
    struct Best
    {
        float v;
        std::int64_t i;
    };
    const std::int64_t base = startIndex(n, incx);
    const simd::Kernels *sk = incx == 1 ? simd::active() : nullptr;
    auto chunkBest = [&](std::int64_t b, std::int64_t e) {
        if (sk) {
            Best best;
            best.i = b + sk->isamax(e - b, x + b);
            best.v = std::fabs(x[best.i]);
            return best;
        }
        Best best{std::fabs(x[base + b * incx]), b};
        for (std::int64_t i = b + 1; i < e; ++i) {
            float v = std::fabs(x[base + i * incx]);
            if (v > best.v) {
                best.v = v;
                best.i = i;
            }
        }
        return best;
    };
    // Combine keeps the left (lower-index) chunk on ties, matching the
    // sequential "first strictly greater wins" semantics exactly.
    const KernelTuning &t = kernelTuning();
    Best best = deterministicReduce<Best>(
        n, kReduceChunk, incx == 1 ? t.threadsFor(n) : 1, chunkBest,
        [](const Best &a, const Best &b) { return b.v > a.v ? b : a; });
    return best.i;
}

void
caxpy(std::int64_t n, cfloat a, const cfloat *x, std::int64_t incx,
      cfloat *y, std::int64_t incy)
{
    if (n <= 0 || a == cfloat{})
        return;
    fatalIf(incx == 0 || incy == 0, "caxpy: zero stride");
    if (incx == 1 && incy == 1) {
        const KernelTuning &t = kernelTuning();
        const simd::Kernels *sk = simd::active();
        parallelFor(0, n, t.threadsFor(2 * n), 4096,
                    [&](std::int64_t b, std::int64_t e) {
                        if (sk) {
                            sk->caxpy(e - b, a.real(), a.imag(),
                                      flat(x + b),
                                      reinterpret_cast<float *>(y + b));
                            return;
                        }
                        for (std::int64_t i = b; i < e; ++i)
                            y[i] += a * x[i];
                    });
        return;
    }
    std::int64_t ix = startIndex(n, incx);
    std::int64_t iy = startIndex(n, incy);
    for (std::int64_t i = 0; i < n; ++i, ix += incx, iy += incy)
        y[iy] += a * x[ix];
}

namespace {

/** Complex accumulator for the deterministic cdot reductions. */
struct CAcc
{
    double re = 0.0;
    double im = 0.0;
};

inline CAcc
caccAdd(const CAcc &a, const CAcc &b)
{
    return {a.re + b.re, a.im + b.im};
}

} // namespace

cfloat
cdotc(std::int64_t n, const cfloat *x, std::int64_t incx, const cfloat *y,
      std::int64_t incy)
{
    if (n <= 0)
        return {};
    fatalIf(incx == 0 || incy == 0, "cdotc: zero stride");
    const std::int64_t bx = startIndex(n, incx);
    const std::int64_t by = startIndex(n, incy);
    const simd::Kernels *sk =
        incx == 1 && incy == 1 ? simd::active() : nullptr;
    const KernelTuning &t = kernelTuning();
    if (sk != nullptr && n <= kReduceChunk) {
        // One reduction chunk: deterministicReduce would run exactly
        // this call, so skip it (STAP issues ~1M of these per pass).
        CAcc s;
        sk->cdot(n, flat(x), flat(y), /*conjx=*/true, &s.re, &s.im);
        return {static_cast<float>(s.re), static_cast<float>(s.im)};
    }
    auto chunk = [&](std::int64_t b, std::int64_t e) {
        CAcc s;
        if (sk) {
            sk->cdot(e - b, flat(x + b), flat(y + b), /*conjx=*/true,
                     &s.re, &s.im);
            return s;
        }
        for (std::int64_t i = b; i < e; ++i) {
            const cfloat &a = x[bx + i * incx];
            const cfloat &c = y[by + i * incy];
            // conj(a) * c, accumulated in double
            s.re += static_cast<double>(a.real()) * c.real() +
                    static_cast<double>(a.imag()) * c.imag();
            s.im += static_cast<double>(a.real()) * c.imag() -
                    static_cast<double>(a.imag()) * c.real();
        }
        return s;
    };
    int threads = incx == 1 && incy == 1 ? t.threadsFor(2 * n) : 1;
    CAcc s = deterministicReduce<CAcc>(n, kReduceChunk, threads, chunk,
                                       caccAdd);
    return {static_cast<float>(s.re), static_cast<float>(s.im)};
}

cfloat
cdotu(std::int64_t n, const cfloat *x, std::int64_t incx, const cfloat *y,
      std::int64_t incy)
{
    if (n <= 0)
        return {};
    fatalIf(incx == 0 || incy == 0, "cdotu: zero stride");
    const std::int64_t bx = startIndex(n, incx);
    const std::int64_t by = startIndex(n, incy);
    const simd::Kernels *sk =
        incx == 1 && incy == 1 ? simd::active() : nullptr;
    auto chunk = [&](std::int64_t b, std::int64_t e) {
        CAcc s;
        if (sk) {
            sk->cdot(e - b, flat(x + b), flat(y + b), /*conjx=*/false,
                     &s.re, &s.im);
            return s;
        }
        for (std::int64_t i = b; i < e; ++i) {
            const cfloat &a = x[bx + i * incx];
            const cfloat &c = y[by + i * incy];
            s.re += static_cast<double>(a.real()) * c.real() -
                    static_cast<double>(a.imag()) * c.imag();
            s.im += static_cast<double>(a.real()) * c.imag() +
                    static_cast<double>(a.imag()) * c.real();
        }
        return s;
    };
    const KernelTuning &t = kernelTuning();
    int threads = incx == 1 && incy == 1 ? t.threadsFor(2 * n) : 1;
    CAcc s = deterministicReduce<CAcc>(n, kReduceChunk, threads, chunk,
                                       caccAdd);
    return {static_cast<float>(s.re), static_cast<float>(s.im)};
}

} // namespace mealib::mkl

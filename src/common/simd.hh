/**
 * @file
 * Portable SIMD kernel layer with runtime ISA dispatch.
 *
 * The MiniMKL kernels are written against a *virtual* fixed-width
 * vector machine: 8-lane f32 vectors for maps, 8-lane f64 accumulators
 * for reductions, and 4-lane cfloat vectors for complex work. One
 * generic implementation (simd_backend.inc, plain compiler vector
 * extensions) is compiled once per ISA level — SSE4.2, AVX2 and
 * (compiler permitting) AVX-512 — each translation unit pinned to
 * `-march=x86-64 -m<isa> -O3 -ffp-contract=off`, and the best table the
 * CPU supports is selected at startup via cpuid.
 *
 * Determinism contract (see docs/KERNELS.md):
 *
 *  - `MEALIB_SIMD=scalar` bypasses the tables entirely: the kernel
 *    files keep their legacy loops inline, so scalar output is
 *    bit-for-bit identical to the pre-SIMD library under any build
 *    flags (the legacy pin).
 *  - Every vector level executes the *same* generic source with the
 *    same fixed 8-lane layout (element i lives in lane i mod 8) and
 *    the same fixed-order lane-combine trees, with FP contraction off,
 *    so sse4/avx2/avx512 produce bit-identical results to each other —
 *    for any thread count, since the deterministicReduce chunk tree is
 *    unchanged and lanes are re-seeded per chunk (the fixed-width pin).
 *
 * Selection: `MEALIB_SIMD=scalar|sse4|avx2|avx512|auto` (default auto)
 * is read into KernelTuning once at startup and can be overridden at
 * runtime via kernelTuning().simd; requests above what the CPU (or the
 * build) supports clamp down to the best available level.
 */

#ifndef MEALIB_COMMON_SIMD_HH
#define MEALIB_COMMON_SIMD_HH

#include <cstdint>
#include <vector>

namespace mealib::simd {

/** ISA levels of the virtual-vector backends, in capability order. */
enum class SimdLevel : int
{
    Scalar = 0, //!< legacy loops inline in the kernel files
    Sse4 = 1,   //!< 128-bit vectors (SSE4.2)
    Avx2 = 2,   //!< 256-bit vectors (AVX2)
    Avx512 = 3, //!< 512-bit vectors (AVX-512 F/VL/DQ)
    Auto = 4,   //!< resolve to the best level the CPU supports
};

/** Lower-case name used by MEALIB_SIMD, --simd and the bench JSON. */
const char *name(SimdLevel level);

/** Parse a MEALIB_SIMD-style string. @return false on junk. */
bool parseLevel(const char *text, SimdLevel *out);

/**
 * Best level both the CPU (cpuid) and the build support. Computed once
 * per process.
 */
SimdLevel detectedLevel();

/** Resolve a request: Auto -> detected, else min(request, detected). */
SimdLevel resolveLevel(SimdLevel request);

/** The level the kernels run at right now (kernelTuning().simd). */
SimdLevel activeLevel();

/** Scalar plus every vector level this process can actually run. */
std::vector<SimdLevel> availableLevels();

/**
 * One virtual-vector kernel table. All pointers are contiguous
 * (unit-stride) arrays; complex arguments are interleaved re/im float
 * pairs and `n` counts complex elements. Reduction kernels implement
 * the fixed 8-lane accumulator layout described above and are meant to
 * be called per deterministicReduce chunk.
 */
struct Kernels
{
    // --- f32 maps (bit-identical to the legacy scalar ops) -----------
    /** y[i] += a * x[i] */
    void (*saxpy)(std::int64_t n, float a, const float *x, float *y);
    /** y[i] = a * x[i] + b * y[i] */
    void (*saxpby)(std::int64_t n, float a, const float *x, float b,
                   float *y);
    /** x[i] *= a */
    void (*sscal)(std::int64_t n, float a, float *x);
    /** y[i] = x[i] */
    void (*scopy)(std::int64_t n, const float *x, float *y);
    /** y[i] = alpha * x[i] */
    void (*scopyScale)(std::int64_t n, float alpha, const float *x,
                       float *y);
    /** y[k] += (ar + i*ai) * x[k] over n interleaved complex elements */
    void (*caxpy)(std::int64_t n, float ar, float ai, const float *x,
                  float *y);
    /**
     * For q = 0..count-1 in order, y[k] -= f_q * x[q][k] over n
     * interleaved complex elements, f_q = f[2q] + i*f[2q+1]. Each step
     * keeps std::complex operation order: bit-identical to the scalar
     * `y -= f_q * x_q` loop for finite products. (caxpy with -f_q is
     * not: it loses the sign of a zero product term.)
     */
    void (*csubMul)(std::int64_t n, std::int64_t count, const float *f,
                    const float *const *x, float *y);
    /** x[k] *= (ar + i*ai) in std::complex operation order */
    void (*cscal)(std::int64_t n, float ar, float ai, float *x);

    // --- fixed-width reductions (8 f64 lanes, fixed combine tree) ----
    /** sum x[i] * y[i] in f64 */
    double (*sdot)(std::int64_t n, const float *x, const float *y);
    /** sum |x[i]| in f64 */
    double (*sasum)(std::int64_t n, const float *x);
    /** slassq-style partial: scale = max|x|, ssq = sum (x/scale)^2 */
    void (*slassq)(std::int64_t n, const float *x, double *scale,
                   double *ssq);
    /** lowest index of max |x[i]| (first-strictly-greater-wins) */
    std::int64_t (*isamax)(std::int64_t n, const float *x);
    /**
     * Complex dot over n interleaved elements: conj(x).y when @p conjx,
     * else x.y, accumulated in 4 complex f64 lanes.
     */
    void (*cdot)(std::int64_t n, const float *x, const float *y,
                 bool conjx, double *re, double *im);
    /** CSR row gather-dot: sum vals[k] * x[cols[k] - base] in f64 */
    double (*csrdot)(std::int64_t n, const float *vals,
                     const std::int32_t *cols, std::int32_t base,
                     const float *x);

    // --- structured kernels ------------------------------------------
    /**
     * FFT butterfly over s interleaved complex elements:
     * ya[q] = xa[q] + xb[q]; yb[q] = (xa[q] - xb[q]) * (wr + i*wi).
     * Same elementwise ops as the legacy loop (bit-identical).
     */
    void (*fftButterfly)(std::int64_t s, const float *xa, const float *xb,
                         float *ya, float *yb, float wr, float wi);
    /**
     * Transposing tile copy: b[j*ldb + i] = alpha * a[i*lda + j] for
     * i < rows, j < cols (8x8 in-register micro blocks, scalar edges;
     * bit-identical to the legacy elementwise loop).
     */
    void (*somatTile)(std::int64_t rows, std::int64_t cols, float alpha,
                      const float *a, std::int64_t lda, float *b,
                      std::int64_t ldb);
    /**
     * 4x8 Hermitian rank-k register tile over split re/im f64 planes
     * (element (p, c) at re[p*ld + c] + i*im[p*ld + c]): for u < 4,
     * v < 8, out[u*8 + v] = sum over p ascending of x*y with
     * x = (p, i0 + u) and y = (p, j0 + v), x conjugated when
     * @p conjLeft and y otherwise. Each element keeps one f64
     * accumulator and adds (xr*yr - xi*yi, xr*yi + xi*yr) per step —
     * the scalar cherk loop's exact sequence, so bit-identical to it.
     * Columns i0..i0+3 and j0..j0+7 must lie inside the planes.
     */
    void (*herkTile)(std::int64_t k, std::int64_t ld, const double *re,
                     const double *im, std::int64_t i0, std::int64_t j0,
                     bool conjLeft, double *outRe, double *outIm);
    /**
     * Block of conjugated complex dots over n interleaved elements: for
     * u < rows, v < cols, with w_u = w + u*ws and x_v = x + v*xs,
     * out[u*ou + v*ov] and the float after it receive conj(w_u).x_v.
     * Strides count floats. Each output is cdot(n, w_u, x_v, true)
     * rounded to float, bit for bit: the same 16 f64 sums per dot
     * (complex lane x product term), each in the same order, and the
     * same combine tree. Each w and x is packed once per call into f64
     * planes that R x 8 register tiles read (R is 4 at avx512, else 2).
     */
    void (*cdotTile)(std::int64_t n, std::int64_t rows, std::int64_t cols,
                     const float *w, std::int64_t ws, const float *x,
                     std::int64_t xs, float *out, std::int64_t ou,
                     std::int64_t ov);
    /**
     * x[k] /= (dr + i*di) over n interleaved complex elements, by the
     * formula cdivRowScalar documents, with c^2 + d^2 computed once.
     */
    void (*cdivRow)(std::int64_t n, float dr, float di, float *x);
};

/**
 * Scalar form of Kernels::cdivRow, for the scalar level. Each quotient
 * widens to f64: with den = c^2 + d^2, re = (float)((a*c + b*d) / den)
 * and im = (float)((b*c - a*d) / den), and an element whose parts both
 * come out NaN is redone with std::complex division. That is libgcc's
 * __divsc3 (GCC 12 and later) bit for bit, so on those toolchains it
 * equals `x /= d`. Its translation unit is compiled without FP
 * contraction, so every level agrees with it on every toolchain.
 */
void cdivRowScalar(std::int64_t n, float dr, float di, float *x);

/** Table for @p level; nullptr for Scalar or an unavailable level. */
const Kernels *tableFor(SimdLevel level);

/**
 * The active table, or nullptr when running at the scalar level —
 * callers branch to their legacy inline loops on nullptr. Resolve once
 * per kernel entry, not per chunk.
 */
const Kernels *active();

} // namespace mealib::simd

#endif // MEALIB_COMMON_SIMD_HH

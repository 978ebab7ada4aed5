#include "minimkl/blas3.hh"

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

namespace mealib::mkl {

namespace {

/** Square blocking factor of the gemm loop nest (elements). */
constexpr std::int64_t kGemmBlock = 64;

inline float
conjOf(float v)
{
    return v;
}

inline cfloat
conjOf(cfloat v)
{
    return std::conj(v);
}

template <typename T>
inline bool
isZero(const T &v)
{
    return v == T{};
}

/** Element accessor for op(A) of a row-major stored matrix. */
template <typename T>
class OpView
{
  public:
    OpView(const T *a, std::int64_t lda, Transpose trans)
        : a_(a), lda_(lda),
          trans_(trans != Transpose::NoTrans),
          conj_(trans == Transpose::ConjTrans)
    {}

    T
    operator()(std::int64_t i, std::int64_t j) const
    {
        T v = trans_ ? a_[j * lda_ + i] : a_[i * lda_ + j];
        return conj_ ? conjOf(v) : v;
    }

    /** @return true when op(A) walks A column-wise. */
    bool
    transposed() const
    {
        return trans_;
    }

    /** Raw stored row @p i — valid only when !transposed() (no conj). */
    const T *
    rowPtr(std::int64_t i) const
    {
        return a_ + i * lda_;
    }

  private:
    const T *a_;
    std::int64_t lda_;
    bool trans_;
    bool conj_;
};

/**
 * y -= f[q] * x[q] for q in order, through the active SIMD table:
 * bit-identical to the scalar `y[j] -= f * x[j]` loops. The real case is
 * saxpy with -f, since y + (-(f*x)) is exactly y - f*x.
 */
inline void
simdSubMulRows(const simd::Kernels *sk, std::int64_t n, std::int64_t count,
               const float *f, const float *const *x, float *y)
{
    for (std::int64_t q = 0; q < count; ++q)
        sk->saxpy(n, -f[q], x[q], y);
}

inline void
simdSubMulRows(const simd::Kernels *sk, std::int64_t n, std::int64_t count,
               const cfloat *f, const float *const *x, cfloat *y)
{
    sk->csubMul(n, count, reinterpret_cast<const float *>(f), x,
                reinterpret_cast<float *>(y));
}

/** x *= alpha row scale through the active SIMD table (bit-identical). */
inline void
simdScaleRow(const simd::Kernels *sk, std::int64_t n, float alpha, float *x)
{
    sk->sscal(n, alpha, x);
}

inline void
simdScaleRow(const simd::Kernels *sk, std::int64_t n, cfloat alpha,
             cfloat *x)
{
    sk->cscal(n, alpha.real(), alpha.imag(), reinterpret_cast<float *>(x));
}

/** x[j] /= d for j < n: the real row keeps its per-element division. */
inline void
divideRow(const simd::Kernels *, std::int64_t n, float d, float *x)
{
    for (std::int64_t j = 0; j < n; ++j)
        x[j] /= d;
}

/**
 * The complex row divides by its one divisor through cdivRow, or at the
 * scalar level through the same formula's plain loop: the result of
 * libgcc's __divsc3, so `x[j] /= d` bit for bit on GCC 12 and later.
 */
inline void
divideRow(const simd::Kernels *sk, std::int64_t n, cfloat d, cfloat *x)
{
    float *f = reinterpret_cast<float *>(x);
    if (sk != nullptr)
        sk->cdivRow(n, d.real(), d.imag(), f);
    else
        simd::cdivRowScalar(n, d.real(), d.imag(), f);
}

/** alpha*x + y row update through the active SIMD table. */
inline void
simdAxpyRow(const simd::Kernels *sk, std::int64_t n, float av,
            const float *x, float *y)
{
    sk->saxpy(n, av, x, y);
}

inline void
simdAxpyRow(const simd::Kernels *sk, std::int64_t n, cfloat av,
            const cfloat *x, cfloat *y)
{
    sk->caxpy(n, av.real(), av.imag(), reinterpret_cast<const float *>(x),
              reinterpret_cast<float *>(y));
}

/** Row-major blocked GEMM core: C := alpha*op(A)*op(B) + beta*C. */
template <typename T>
void
gemmRowMajor(Transpose transa, Transpose transb, std::int64_t m,
             std::int64_t n, std::int64_t k, T alpha, const T *a,
             std::int64_t lda, const T *b, std::int64_t ldb, T beta, T *c,
             std::int64_t ldc)
{
    fatalIf(m < 0 || n < 0 || k < 0, "gemm: negative dimension");
    fatalIf(ldc < n && m > 0, "gemm: ldc too small");
    // Row-major op(A) is m x k and op(B) is k x n; a short row stride
    // would silently read the next row.
    fatalIf(m > 0 && k > 0 && lda < (transa == Transpose::NoTrans ? k : m),
            "gemm: lda too small");
    fatalIf(n > 0 && k > 0 && ldb < (transb == Transpose::NoTrans ? n : k),
            "gemm: ldb too small");
    if (m == 0 || n == 0)
        return;

    const KernelTuning &tun = kernelTuning();
    const int threads = tun.threadsFor(m * n);

    parallelFor(0, m, threads, 16, [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t i = rb; i < re; ++i) {
            T *row = c + i * ldc;
            if (isZero(beta)) {
                std::fill(row, row + n, T{});
            } else if (beta != T{1}) {
                for (std::int64_t j = 0; j < n; ++j)
                    row[j] *= beta;
            }
        }
    });
    if (isZero(alpha) || k == 0)
        return;

    OpView<T> A(a, lda, transa);
    OpView<T> B(b, ldb, transb);

    // i-k-j loop nest with square blocking: the kj inner loops stream
    // over rows of op(B) and C, which keeps the walk unit-stride when
    // op(B) is untransposed. Row bands own disjoint C rows, so the
    // outer band loop fans out across the pool; within a row the
    // kk-ascending update order is unchanged by the partition.
    const std::int64_t mult = tun.threadsFor(2 * m * n * k);
    // When op(B) is untransposed its rows are contiguous, so the j map
    // runs through the SIMD axpy kernel (bit-identical to the scalar
    // elementwise update at every level).
    const simd::Kernels *sk = simd::active();
    const bool vecB = sk != nullptr && !B.transposed();
    parallelFor(0, m, mult, kGemmBlock, [&](std::int64_t mb, std::int64_t me) {
        for (std::int64_t ii = mb; ii < me; ii += kGemmBlock) {
            std::int64_t ie = std::min(ii + kGemmBlock, me);
            for (std::int64_t kk = 0; kk < k; kk += kGemmBlock) {
                std::int64_t ke = std::min(kk + kGemmBlock, k);
                for (std::int64_t jj = 0; jj < n; jj += kGemmBlock) {
                    std::int64_t je = std::min(jj + kGemmBlock, n);
                    for (std::int64_t i = ii; i < ie; ++i) {
                        T *crow = c + i * ldc;
                        for (std::int64_t p = kk; p < ke; ++p) {
                            T av = alpha * A(i, p);
                            if (isZero(av))
                                continue;
                            if (vecB) {
                                simdAxpyRow(sk, je - jj, av,
                                            B.rowPtr(p) + jj, crow + jj);
                                continue;
                            }
                            for (std::int64_t j = jj; j < je; ++j)
                                crow[j] += av * B(p, j);
                        }
                    }
                }
            }
        }
    });
}

Uplo
flipUplo(Uplo u)
{
    return u == Uplo::Upper ? Uplo::Lower : Uplo::Upper;
}

/**
 * c := c + alpha * (racc + i*iacc) rounded to cfloat, with the diagonal
 * kept real: the finishing step every cherk path shares.
 */
inline void
herkStore(cfloat &c, float alpha, double racc, double iacc, bool diag)
{
    cfloat acc{static_cast<float>(racc), static_cast<float>(iacc)};
    cfloat v = c + alpha * acc;
    if (diag)
        v = cfloat{v.real(), 0.0f};
    c = v;
}

/** Row-major CHERK core. */
void
cherkRowMajor(Uplo uplo, Transpose trans, std::int64_t n, std::int64_t k,
              float alpha, const cfloat *a, std::int64_t lda, float beta,
              cfloat *c, std::int64_t ldc)
{
    fatalIf(n < 0 || k < 0, "cherk: negative dimension");
    fatalIf(trans == Transpose::Trans,
            "cherk: trans must be NoTrans or ConjTrans");
    if (n == 0)
        return;
    fatalIf(ldc < n, "cherk: ldc too small");
    const bool notrans = trans == Transpose::NoTrans;
    // NoTrans A is n x k, ConjTrans A is k x n (row-major).
    fatalIf(k > 0 && lda < (notrans ? k : n), "cherk: lda too small");

    const bool upper = uplo == Uplo::Upper;
    const KernelTuning &tun = kernelTuning();
    const int threads = tun.threadsFor(4 * n * n);

    // Scale the referenced triangle; the diagonal of a Hermitian matrix
    // is real, and BLAS guarantees the imaginary part is cleared.
    parallelFor(0, n, threads, 16, [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t i = rb; i < re; ++i) {
            std::int64_t j0 = upper ? i : 0;
            std::int64_t j1 = upper ? n : i + 1;
            for (std::int64_t j = j0; j < j1; ++j) {
                cfloat v = c[i * ldc + j] * beta;
                if (i == j)
                    v = cfloat{v.real(), 0.0f};
                c[i * ldc + j] = v;
            }
        }
    });
    if (alpha == 0.0f || k == 0)
        return;

    // NoTrans: C += alpha * A * A^H with A n x k (row-major).
    // ConjTrans: C += alpha * A^H * A with A k x n.
    //
    // Each (i, j) keeps one double accumulator over p ascending, so the
    // result is the same for every thread count. Rows of the triangle
    // are independent and fan out across the pool.
    const int rowThreads = tun.threadsFor(4 * n * n * k);
    const simd::Kernels *sk = simd::active();
    if (sk == nullptr) {
        parallelFor(0, n, rowThreads, 1, [&](std::int64_t rb,
                                             std::int64_t re) {
            for (std::int64_t i = rb; i < re; ++i) {
                std::int64_t j0 = upper ? i : 0;
                std::int64_t j1 = upper ? n : i + 1;
                for (std::int64_t j = j0; j < j1; ++j) {
                    double racc = 0.0, iacc = 0.0;
                    for (std::int64_t p = 0; p < k; ++p) {
                        cfloat x = notrans ? a[i * lda + p]
                                           : std::conj(a[p * lda + i]);
                        cfloat y = notrans ? std::conj(a[j * lda + p])
                                           : a[p * lda + j];
                        racc += static_cast<double>(x.real()) * y.real() -
                                static_cast<double>(x.imag()) * y.imag();
                        iacc += static_cast<double>(x.real()) * y.imag() +
                                static_cast<double>(x.imag()) * y.real();
                    }
                    herkStore(c[i * ldc + j], alpha, racc, iacc, i == j);
                }
            }
        });
        return;
    }

    // Vector levels: pack op(A)'s columns into split re/im f64 planes,
    // k rows of ld = n rounded up to whole 8-column tiles (the widening
    // is exact), then run 4x8 register tiles over the triangle. The
    // tile kernel repeats the scalar loop's per-element operations, so
    // every level equals the scalar result bit for bit.
    const std::int64_t ld = (n + 7) / 8 * 8;
    auto planes = std::make_unique_for_overwrite<double[]>(
        static_cast<std::size_t>(2 * k * ld));
    double *pre = planes.get();
    double *pim = pre + k * ld;
    for (std::int64_t p = 0; p < k; ++p) {
        double *r = pre + p * ld;
        double *m = pim + p * ld;
        if (notrans) {
            for (std::int64_t i = 0; i < n; ++i) {
                r[i] = a[i * lda + p].real();
                m[i] = a[i * lda + p].imag();
            }
        } else {
            const cfloat *row = a + p * lda;
            for (std::int64_t i = 0; i < n; ++i) {
                r[i] = row[i].real();
                m[i] = row[i].imag();
            }
        }
        std::fill(r + n, r + ld, 0.0);
        std::fill(m + n, m + ld, 0.0);
    }
    parallelFor(0, (n + 3) / 4, rowThreads, 1, [&](std::int64_t tb,
                                                   std::int64_t te) {
        double tr[32], ti[32];
        for (std::int64_t t = tb; t < te; ++t) {
            const std::int64_t i0 = 4 * t;
            const std::int64_t i1 = std::min(i0 + 4, n);
            const std::int64_t jb = upper ? i0 / 8 * 8 : 0;
            const std::int64_t je = upper ? n : i1;
            for (std::int64_t j0 = jb; j0 < je; j0 += 8) {
                sk->herkTile(k, ld, pre, pim, i0, j0, !notrans, tr, ti);
                for (std::int64_t i = i0; i < i1; ++i) {
                    const std::int64_t lo = std::max(j0, upper ? i : 0);
                    const std::int64_t hi =
                        std::min(j0 + 8, upper ? n : i + 1);
                    for (std::int64_t j = lo; j < hi; ++j) {
                        const std::int64_t e = (i - i0) * 8 + (j - j0);
                        herkStore(c[i * ldc + j], alpha, tr[e], ti[e],
                                  i == j);
                    }
                }
            }
        }
    });
}

/** Row-major TRSM core. B is m x n; see header for semantics. */
template <typename T>
void
trsmRowMajor(Side side, Uplo uplo, Transpose trans, Diag diag,
             std::int64_t m, std::int64_t n, T alpha, const T *a,
             std::int64_t lda, T *b, std::int64_t ldb)
{
    fatalIf(m < 0 || n < 0, "trsm: negative dimension");
    if (m == 0 || n == 0)
        return;
    fatalIf(ldb < n, "trsm: ldb too small");
    std::int64_t adim = side == Side::Left ? m : n;
    fatalIf(lda < adim, "trsm: lda too small");

    OpView<T> A(a, lda, trans);
    // Transposing a triangular matrix flips which triangle holds data.
    Uplo eff = trans == Transpose::NoTrans ? uplo : flipUplo(uplo);
    const bool unit = diag == Diag::Unit;

    const KernelTuning &tun = kernelTuning();
    const std::int64_t solveDim = side == Side::Left ? m : n;
    const int threads = tun.threadsFor(2 * m * n * solveDim);

    const simd::Kernels *sk = simd::active();
    parallelFor(0, m, threads, 16, [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t i = rb; i < re; ++i) {
            if (sk != nullptr) {
                simdScaleRow(sk, n, alpha, b + i * ldb);
                continue;
            }
            for (std::int64_t j = 0; j < n; ++j)
                b[i * ldb + j] *= alpha;
        }
    });

    if (side == Side::Left) {
        // Solve op(A) * X = B row-block-wise. The row recurrence is
        // sequential, but B's columns are independent right-hand sides:
        // each pool lane runs the full recurrence over its own column
        // panel [jb, je), so writes are disjoint and each element's
        // update order is exactly the sequential one. At vector levels
        // row i's updates b[i, :] -= f * b[p, :] go to the SIMD table in
        // one call, applied in p order with the same per-element
        // operations. The division by the diagonal goes through
        // divideRow at every level, scalar included.
        auto panel = [&](std::int64_t jb, std::int64_t je) {
            // The nonzero multipliers of one row and the solved rows
            // they scale, handed to the kernel in one call.
            std::vector<T> fs;
            std::vector<const float *> xs;
            if (sk != nullptr) {
                fs.reserve(static_cast<std::size_t>(m));
                xs.reserve(static_cast<std::size_t>(m));
            }
            auto solveRow = [&](std::int64_t i, std::int64_t p0,
                                std::int64_t p1) {
                fs.clear();
                xs.clear();
                for (std::int64_t p = p0; p < p1; ++p) {
                    T f = A(i, p);
                    if (isZero(f))
                        continue;
                    if (sk != nullptr) {
                        fs.push_back(f);
                        xs.push_back(reinterpret_cast<const float *>(
                            b + p * ldb + jb));
                        continue;
                    }
                    for (std::int64_t j = jb; j < je; ++j)
                        b[i * ldb + j] -= f * b[p * ldb + j];
                }
                if (!fs.empty())
                    simdSubMulRows(sk, je - jb,
                                   static_cast<std::int64_t>(fs.size()),
                                   fs.data(), xs.data(), b + i * ldb + jb);
                if (!unit)
                    divideRow(sk, je - jb, A(i, i), b + i * ldb + jb);
            };
            if (eff == Uplo::Lower) {
                for (std::int64_t i = 0; i < m; ++i)
                    solveRow(i, 0, i);
            } else {
                for (std::int64_t i = m - 1; i >= 0; --i)
                    solveRow(i, i + 1, m);
            }
        };
        parallelFor(0, n, threads, 16, panel);
    } else {
        // Solve X * op(A) = B: each row of B is an independent solve
        // against op(A) from the right.
        auto rows = [&](std::int64_t rb, std::int64_t re) {
            if (eff == Uplo::Upper) {
                for (std::int64_t r = rb; r < re; ++r) {
                    T *row = b + r * ldb;
                    for (std::int64_t j = 0; j < n; ++j) {
                        T acc = row[j];
                        for (std::int64_t p = 0; p < j; ++p)
                            acc -= row[p] * A(p, j);
                        row[j] = unit ? acc : acc / A(j, j);
                    }
                }
            } else {
                for (std::int64_t r = rb; r < re; ++r) {
                    T *row = b + r * ldb;
                    for (std::int64_t j = n - 1; j >= 0; --j) {
                        T acc = row[j];
                        for (std::int64_t p = j + 1; p < n; ++p)
                            acc -= row[p] * A(p, j);
                        row[j] = unit ? acc : acc / A(j, j);
                    }
                }
            }
        };
        parallelFor(0, m, threads, 1, rows);
    }
}

Side
flipSide(Side s)
{
    return s == Side::Left ? Side::Right : Side::Left;
}

} // namespace

void
sgemm(Order order, Transpose transa, Transpose transb, std::int64_t m,
      std::int64_t n, std::int64_t k, float alpha, const float *a,
      std::int64_t lda, const float *b, std::int64_t ldb, float beta,
      float *c, std::int64_t ldc)
{
    if (order == Order::RowMajor) {
        gemmRowMajor(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                     c, ldc);
    } else {
        // Column-major C = op(A)op(B) is row-major C^T = op(B)^T op(A)^T.
        gemmRowMajor(transb, transa, n, m, k, alpha, b, ldb, a, lda, beta,
                     c, ldc);
    }
}

void
cgemm(Order order, Transpose transa, Transpose transb, std::int64_t m,
      std::int64_t n, std::int64_t k, cfloat alpha, const cfloat *a,
      std::int64_t lda, const cfloat *b, std::int64_t ldb, cfloat beta,
      cfloat *c, std::int64_t ldc)
{
    if (order == Order::RowMajor) {
        gemmRowMajor(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                     c, ldc);
    } else {
        gemmRowMajor(transb, transa, n, m, k, alpha, b, ldb, a, lda, beta,
                     c, ldc);
    }
}

void
cherk(Order order, Uplo uplo, Transpose trans, std::int64_t n,
      std::int64_t k, float alpha, const cfloat *a, std::int64_t lda,
      float beta, cfloat *c, std::int64_t ldc)
{
    if (order == Order::RowMajor) {
        cherkRowMajor(uplo, trans, n, k, alpha, a, lda, beta, c, ldc);
    } else {
        // Column-major Hermitian update maps to the row-major core with
        // the triangle and the transposition flipped (CBLAS convention).
        Transpose t = trans == Transpose::NoTrans ? Transpose::ConjTrans
                                                  : Transpose::NoTrans;
        cherkRowMajor(flipUplo(uplo), t, n, k, alpha, a, lda, beta, c,
                      ldc);
    }
}

void
ctrsm(Order order, Side side, Uplo uplo, Transpose trans, Diag diag,
      std::int64_t m, std::int64_t n, cfloat alpha, const cfloat *a,
      std::int64_t lda, cfloat *b, std::int64_t ldb)
{
    if (order == Order::RowMajor) {
        trsmRowMajor(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
    } else {
        // Column-major B is row-major B^T: flip the side and the
        // triangle, and swap the dimensions.
        trsmRowMajor(flipSide(side), flipUplo(uplo), trans, diag, n, m,
                     alpha, a, lda, b, ldb);
    }
}

void
cpotrf(std::int64_t n, cfloat *a, std::int64_t lda)
{
    fatalIf(n < 0, "cpotrf: negative dimension");
    if (n == 0)
        return;
    fatalIf(lda < n, "cpotrf: lda too small");

    // Unblocked left-looking Cholesky: column j of L is
    // (a[i, j] - sum_{k<j} L[i, k] * conj(L[j, k])) / L[j, j], k
    // ascending. The diagonal sum and the division by the real pivot
    // stay scalar at every level.
    const simd::Kernels *sk = simd::active();
    if (sk == nullptr) {
        for (std::int64_t j = 0; j < n; ++j) {
            double diag = a[j * lda + j].real();
            for (std::int64_t k = 0; k < j; ++k)
                diag -= std::norm(a[j * lda + k]);
            fatalIf(diag <= 0.0, "cpotrf: matrix not positive definite");
            float d = static_cast<float>(std::sqrt(diag));
            a[j * lda + j] = {d, 0.0f};
            for (std::int64_t i = j + 1; i < n; ++i) {
                cfloat s = a[i * lda + j];
                for (std::int64_t k = 0; k < j; ++k)
                    s -= a[i * lda + k] * std::conj(a[j * lda + k]);
                a[i * lda + j] = s / d;
            }
            // zero the strict upper triangle so trsm sees clean data
            for (std::int64_t k = j + 1; k < n; ++k)
                a[j * lda + k] = {};
        }
        return;
    }

    // Vector levels: the column update runs across rows over a packed
    // transposed copy of the lower triangle (lt[k*ld + i] = L[i, k]):
    // column j -= conj(L[j, k]) * column k for k ascending, in one
    // kernel call. Complex products commute bit for bit, so each row
    // i > j sees the scalar sequence. Columns are padded to ld = n
    // rounded up to 4 complex and the update starts at the 4-aligned
    // row r0 <= j + 1, so the kernel never takes its tail; rows r0..j
    // get throwaway values that no later column reads as L.
    const std::int64_t ld = (n + 3) / 4 * 4;
    std::vector<cfloat> lt(static_cast<std::size_t>(n * ld));
    std::vector<cfloat> fs(static_cast<std::size_t>(n));
    std::vector<const float *> xs(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t k = 0; k <= i; ++k)
            lt[k * ld + i] = a[i * lda + k];
    for (std::int64_t j = 0; j < n; ++j) {
        double diag = a[j * lda + j].real();
        for (std::int64_t k = 0; k < j; ++k)
            diag -= std::norm(a[j * lda + k]);
        fatalIf(diag <= 0.0, "cpotrf: matrix not positive definite");
        float d = static_cast<float>(std::sqrt(diag));
        a[j * lda + j] = {d, 0.0f};
        cfloat *col = lt.data() + j * ld;
        const std::int64_t r0 = (j + 1) / 4 * 4;
        for (std::int64_t k = 0; k < j; ++k) {
            fs[k] = std::conj(a[j * lda + k]);
            xs[k] = reinterpret_cast<const float *>(lt.data() + k * ld + r0);
        }
        simdSubMulRows(sk, ld - r0, j, fs.data(), xs.data(), col + r0);
        for (std::int64_t i = j + 1; i < n; ++i) {
            col[i] = col[i] / d;
            a[i * lda + j] = col[i];
        }
        for (std::int64_t k = j + 1; k < n; ++k)
            a[j * lda + k] = {};
    }
}

void
strsm(Order order, Side side, Uplo uplo, Transpose trans, Diag diag,
      std::int64_t m, std::int64_t n, float alpha, const float *a,
      std::int64_t lda, float *b, std::int64_t ldb)
{
    fatalIf(trans == Transpose::ConjTrans,
            "strsm: ConjTrans is meaningless for real matrices; use Trans");
    if (order == Order::RowMajor) {
        trsmRowMajor(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
    } else {
        trsmRowMajor(flipSide(side), flipUplo(uplo), trans, diag, n, m,
                     alpha, a, lda, b, ldb);
    }
}

} // namespace mealib::mkl

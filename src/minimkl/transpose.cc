#include "minimkl/transpose.hh"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

namespace mealib::mkl {

namespace {

/** Edge of the square tiles of the blocked transposes (elements). */
constexpr std::int64_t kTile = 32;

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

/**
 * Row-major core of B := alpha * op(A). Column-major callers flip
 * rows/cols (a column-major matrix is its row-major transpose).
 *
 * The transposing path is tiled in KernelTuning::tile-sized square
 * blocks (the default 32x32 float tile pair fits in L1) and the tile
 * row-bands are statically partitioned across the thread pool: band i
 * only writes columns [ii, ie) of B, so bands never overlap.
 */
template <typename T>
void
omatcopyRowMajor(Transpose trans, std::int64_t rows, std::int64_t cols,
                 T alpha, const T *a, std::int64_t lda, T *b,
                 std::int64_t ldb)
{
    fatalIf(rows < 0 || cols < 0, "omatcopy: negative dimension");
    fatalIf(lda < cols, "omatcopy: lda too small");
    const bool t = trans == Transpose::Trans ||
                   trans == Transpose::ConjTrans;
    const bool cj = trans == Transpose::ConjTrans;
    fatalIf(ldb < (t ? rows : cols), "omatcopy: ldb too small");

    const KernelTuning &tun = kernelTuning();
    const int threads = tun.threadsFor(rows * cols);

    const simd::Kernels *sk = simd::active();

    if (!t) {
        parallelFor(0, rows, threads, 1,
                    [&](std::int64_t rb, std::int64_t re) {
                        for (std::int64_t i = rb; i < re; ++i) {
                            const T *ra = a + i * lda;
                            T *rb2 = b + i * ldb;
                            if constexpr (std::is_same_v<T, float>) {
                                if (!cj && sk) {
                                    sk->scopyScale(cols, alpha, ra, rb2);
                                    continue;
                                }
                            }
                            if (cj) {
                                for (std::int64_t j = 0; j < cols; ++j)
                                    rb2[j] = alpha * conjOf(ra[j]);
                            } else {
                                for (std::int64_t j = 0; j < cols; ++j)
                                    rb2[j] = alpha * ra[j];
                            }
                        }
                    });
        return;
    }

    // Blocked transpose: both the read and the write stay within one
    // kTile x kTile tile, so each side touches at most kTile distinct
    // rows. The float tiles run through the 8x8 in-register transpose
    // kernel (bit-identical to the elementwise loop).
    const std::int64_t rowTiles = (rows + kTile - 1) / kTile;
    parallelFor(0, rowTiles, threads, 1,
                [&](std::int64_t tb, std::int64_t te) {
                    for (std::int64_t rt = tb; rt < te; ++rt) {
                        std::int64_t ii = rt * kTile;
                        std::int64_t ie = std::min(ii + kTile, rows);
                        for (std::int64_t jj = 0; jj < cols; jj += kTile) {
                            std::int64_t je = std::min(jj + kTile, cols);
                            if constexpr (std::is_same_v<T, float>) {
                                if (!cj && sk) {
                                    sk->somatTile(ie - ii, je - jj, alpha,
                                                  a + ii * lda + jj, lda,
                                                  b + jj * ldb + ii, ldb);
                                    continue;
                                }
                            }
                            for (std::int64_t i = ii; i < ie; ++i) {
                                const T *ra = a + i * lda;
                                for (std::int64_t j = jj; j < je; ++j) {
                                    T v = cj ? conjOf(ra[j]) : ra[j];
                                    b[j * ldb + i] = alpha * v;
                                }
                            }
                        }
                    }
                });
}

template <typename T>
void
omatcopyDispatch(Order order, Transpose trans, std::int64_t rows,
                 std::int64_t cols, T alpha, const T *a, std::int64_t lda,
                 T *b, std::int64_t ldb)
{
    if (order == Order::RowMajor)
        omatcopyRowMajor(trans, rows, cols, alpha, a, lda, b, ldb);
    else
        omatcopyRowMajor(trans, cols, rows, alpha, a, lda, b, ldb);
}

/** In-place core; square NoTrans/Trans fast paths, temp otherwise. */
template <typename T>
void
imatcopyDispatch(Order order, Transpose trans, std::int64_t rows,
                 std::int64_t cols, T alpha, T *ab, std::int64_t lda,
                 std::int64_t ldb)
{
    fatalIf(rows < 0 || cols < 0, "imatcopy: negative dimension");
    const bool t = trans == Transpose::Trans ||
                   trans == Transpose::ConjTrans;
    const bool cj = trans == Transpose::ConjTrans;

    // Storage-view dimensions (row-major walk).
    std::int64_t srows = order == Order::RowMajor ? rows : cols;
    std::int64_t scols = order == Order::RowMajor ? cols : rows;
    fatalIf(lda < scols, "imatcopy: lda too small");

    const KernelTuning &tun = kernelTuning();
    const int threads = tun.threadsFor(srows * scols);

    if (!t) {
        fatalIf(ldb < scols, "imatcopy: ldb too small");
        // NoTrans with lda != ldb would need a row repack; MKL requires
        // lda == ldb here and so do we.
        fatalIf(lda != ldb, "imatcopy: NoTrans requires lda == ldb");
        parallelFor(0, srows, threads, 1,
                    [&](std::int64_t rb, std::int64_t re) {
                        for (std::int64_t i = rb; i < re; ++i) {
                            T *r = ab + i * lda;
                            for (std::int64_t j = 0; j < scols; ++j)
                                r[j] = alpha * (cj ? conjOf(r[j]) : r[j]);
                        }
                    });
        return;
    }

    if (srows == scols && lda == ldb) {
        // Square in-place transpose by swapping across the diagonal,
        // tile pair by tile pair. Band rt swaps tiles (rt, jj >= rt)
        // with their mirrors, so two bands never touch the same tile
        // pair: band rt writes row-band rt plus the mirrored column-band
        // rt, and those mirrors live in rows jj > rt of columns
        // [rt*kTile, ...) that no other band's swap reaches.
        std::int64_t n = srows;
        const std::int64_t tiles = (n + kTile - 1) / kTile;
        const simd::Kernels *sk = simd::active();
        parallelFor(0, tiles, threads, 1,
                    [&](std::int64_t tb, std::int64_t te) {
                        // Scratch for the SIMD tile-pair swap (sized once
                        // per band; both mirrors are fully read into the
                        // transposing kernel before either is written).
                        std::vector<T> t1, t2;
                        for (std::int64_t rt = tb; rt < te; ++rt) {
                            std::int64_t ii = rt * kTile;
                            std::int64_t ie = std::min(ii + kTile, n);
                            for (std::int64_t jj = ii; jj < n; jj += kTile) {
                                std::int64_t je = std::min(jj + kTile, n);
                                if constexpr (std::is_same_v<T, float>) {
                                    if (!cj && sk && jj > ii) {
                                        const std::int64_t h = ie - ii;
                                        const std::int64_t w = je - jj;
                                        t1.resize(static_cast<std::size_t>(
                                            h * w));
                                        t2.resize(static_cast<std::size_t>(
                                            h * w));
                                        // t1[j'][i'] = alpha*A[ii+i'][jj+j']
                                        sk->somatTile(h, w, alpha,
                                                      ab + ii * lda + jj,
                                                      lda, t1.data(), h);
                                        // t2[i'][j'] = alpha*A[jj+j'][ii+i']
                                        sk->somatTile(w, h, alpha,
                                                      ab + jj * lda + ii,
                                                      lda, t2.data(), w);
                                        for (std::int64_t r = 0; r < h;
                                             ++r)
                                            sk->scopy(
                                                w, t2.data() + r * w,
                                                ab + (ii + r) * lda + jj);
                                        for (std::int64_t r = 0; r < w;
                                             ++r)
                                            sk->scopy(
                                                h, t1.data() + r * h,
                                                ab + (jj + r) * lda + ii);
                                        continue;
                                    }
                                }
                                for (std::int64_t i = ii; i < ie; ++i) {
                                    std::int64_t j0 = std::max(jj, i);
                                    for (std::int64_t j = j0; j < je;
                                         ++j) {
                                        T x = ab[i * lda + j];
                                        T y = ab[j * lda + i];
                                        ab[i * lda + j] =
                                            alpha * (cj ? conjOf(y) : y);
                                        ab[j * lda + i] =
                                            alpha * (cj ? conjOf(x) : x);
                                    }
                                }
                            }
                        }
                    });
        return;
    }

    // Rectangular (or re-strided) in-place transpose via a temporary.
    std::int64_t orows = scols, ocols = srows;
    fatalIf(ldb < ocols, "imatcopy: ldb too small for transposed shape");
    std::vector<T> tmp(static_cast<std::size_t>(orows * ocols));
    omatcopyRowMajor(cj ? Transpose::ConjTrans : Transpose::Trans, srows,
                     scols, alpha, ab, lda, tmp.data(), ocols);
    parallelFor(0, orows, threads, 1,
                [&](std::int64_t rb, std::int64_t re) {
                    for (std::int64_t i = rb; i < re; ++i)
                        std::copy(tmp.begin() + i * ocols,
                                  tmp.begin() + (i + 1) * ocols,
                                  ab + i * ldb);
                });
}

} // namespace

void
somatcopy(Order order, Transpose trans, std::int64_t rows,
          std::int64_t cols, float alpha, const float *a, std::int64_t lda,
          float *b, std::int64_t ldb)
{
    omatcopyDispatch(order, trans, rows, cols, alpha, a, lda, b, ldb);
}

void
comatcopy(Order order, Transpose trans, std::int64_t rows,
          std::int64_t cols, cfloat alpha, const cfloat *a,
          std::int64_t lda, cfloat *b, std::int64_t ldb)
{
    omatcopyDispatch(order, trans, rows, cols, alpha, a, lda, b, ldb);
}

void
simatcopy(Order order, Transpose trans, std::int64_t rows,
          std::int64_t cols, float alpha, float *ab, std::int64_t lda,
          std::int64_t ldb)
{
    imatcopyDispatch(order, trans, rows, cols, alpha, ab, lda, ldb);
}

void
cimatcopy(Order order, Transpose trans, std::int64_t rows,
          std::int64_t cols, cfloat alpha, cfloat *ab, std::int64_t lda,
          std::int64_t ldb)
{
    imatcopyDispatch(order, trans, rows, cols, alpha, ab, lda, ldb);
}

} // namespace mealib::mkl

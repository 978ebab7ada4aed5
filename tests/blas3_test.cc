// Tests for Level-3 BLAS: gemm vs oracle, cherk vs gemm, trsm vs
// multiply-back, cpotrf vs L*L^H, across layouts and parameter
// combinations. The cherk/ctrsm/cpotrf matrices also pin every SIMD
// level and thread count to the scalar result, bit for bit.

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "minimkl/blas3.hh"

namespace mealib::mkl {
namespace {

std::vector<float>
randomVec(std::int64_t n, Rng &rng)
{
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = rng.uniform(-1.0f, 1.0f);
    return v;
}

std::vector<cfloat>
randomCVec(std::int64_t n, Rng &rng)
{
    std::vector<cfloat> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    return v;
}

/**
 * Restores the global tuning after each test, and lowers the parallel
 * cutoff so that even the small matrices fan out across the pool.
 */
class Blas3Test : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = kernelTuning();
        kernelTuning().parallelCutoff = 64;
    }

    void
    TearDown() override
    {
        kernelTuning() = saved_;
    }

    KernelTuning saved_;
};

template <typename Param>
class Blas3ParamTest : public Blas3Test,
                       public ::testing::WithParamInterface<Param>
{};

/**
 * Run @p kernel at every available SIMD level (scalar first) and at 1,
 * 2 and 8 threads. Every run must equal the scalar single-thread run
 * bit for bit; that run is returned for the oracle check.
 */
std::vector<cfloat>
sameBitsEverywhere(const std::function<std::vector<cfloat>()> &kernel)
{
    std::vector<cfloat> ref;
    bool first = true;
    for (simd::SimdLevel level : simd::availableLevels()) {
        kernelTuning().simd = level;
        for (int threads : {1, 2, 8}) {
            kernelTuning().numThreads = threads;
            std::vector<cfloat> out = kernel();
            if (first) {
                ref = std::move(out);
                first = false;
                continue;
            }
            EXPECT_EQ(out.size(), ref.size());
            EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                                  ref.size() * sizeof(cfloat)),
                      0)
                << simd::name(level) << " threads=" << threads;
        }
    }
    return ref;
}

/** Unblocked row-major oracle for C := alpha*op(A)*op(B) + beta*C. */
template <typename T>
void
gemmOracle(Transpose ta, Transpose tb, std::int64_t m, std::int64_t n,
           std::int64_t k, T alpha, const std::vector<T> &a,
           std::int64_t lda, const std::vector<T> &b, std::int64_t ldb,
           T beta, std::vector<T> &c, std::int64_t ldc)
{
    auto conj_of = [](T v) {
        if constexpr (std::is_same_v<T, cfloat>)
            return std::conj(v);
        else
            return v;
    };
    auto elem = [&](const std::vector<T> &mat, std::int64_t ld,
                    Transpose t, std::int64_t i, std::int64_t j) {
        T v = t == Transpose::NoTrans
                  ? mat[static_cast<std::size_t>(i * ld + j)]
                  : mat[static_cast<std::size_t>(j * ld + i)];
        return t == Transpose::ConjTrans ? conj_of(v) : v;
    };
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            T acc{};
            for (std::int64_t p = 0; p < k; ++p)
                acc += elem(a, lda, ta, i, p) * elem(b, ldb, tb, p, j);
            auto idx = static_cast<std::size_t>(i * ldc + j);
            c[idx] = alpha * acc + beta * c[idx];
        }
    }
}

class GemmCombos
    : public ::testing::TestWithParam<std::tuple<Transpose, Transpose>>
{};

TEST_P(GemmCombos, RowMajorMatchesOracle)
{
    auto [ta, tb] = GetParam();
    const std::int64_t m = 9, n = 14, k = 11;
    Rng rng(21);
    std::int64_t lda = ta == Transpose::NoTrans ? k : m;
    std::int64_t ldb = tb == Transpose::NoTrans ? n : k;
    auto a = randomVec(m * k, rng);
    auto b = randomVec(k * n, rng);
    auto c = randomVec(m * n, rng);
    auto c_ref = c;

    sgemm(Order::RowMajor, ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(),
          ldb, 0.4f, c.data(), n);
    gemmOracle(ta, tb, m, n, k, 1.3f, a, lda, b, ldb, 0.4f, c_ref, n);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(c[i], c_ref[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    TransCombos, GemmCombos,
    ::testing::Combine(::testing::Values(Transpose::NoTrans,
                                         Transpose::Trans),
                       ::testing::Values(Transpose::NoTrans,
                                         Transpose::Trans)));

TEST(Sgemm, ColMajorAgreesWithRowMajor)
{
    const std::int64_t m = 6, n = 5, k = 4;
    Rng rng(31);
    auto a = randomVec(m * k, rng); // row-major m x k
    auto b = randomVec(k * n, rng);
    std::vector<float> c_rm(m * n, 0.0f);
    sgemm(Order::RowMajor, Transpose::NoTrans, Transpose::NoTrans, m, n,
          k, 1.0f, a.data(), k, b.data(), n, 0.0f, c_rm.data(), n);

    // Build column-major copies of the same logical matrices.
    std::vector<float> a_cm(m * k), b_cm(k * n), c_cm(m * n, 0.0f);
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t p = 0; p < k; ++p)
            a_cm[static_cast<std::size_t>(p * m + i)] =
                a[static_cast<std::size_t>(i * k + p)];
    for (std::int64_t p = 0; p < k; ++p)
        for (std::int64_t j = 0; j < n; ++j)
            b_cm[static_cast<std::size_t>(j * k + p)] =
                b[static_cast<std::size_t>(p * n + j)];
    sgemm(Order::ColMajor, Transpose::NoTrans, Transpose::NoTrans, m, n,
          k, 1.0f, a_cm.data(), m, b_cm.data(), k, 0.0f, c_cm.data(), m);

    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            EXPECT_NEAR(c_rm[static_cast<std::size_t>(i * n + j)],
                        c_cm[static_cast<std::size_t>(j * m + i)], 1e-4f);
}

TEST(Sgemm, BlockingIsTransparentAcrossSizes)
{
    // Sizes straddling the 64-wide block boundary must agree with the
    // oracle (catches blocked-loop edge bugs).
    for (std::int64_t sz : {63, 64, 65, 130}) {
        Rng rng(static_cast<std::uint64_t>(sz));
        auto a = randomVec(sz * sz, rng);
        auto b = randomVec(sz * sz, rng);
        std::vector<float> c(static_cast<std::size_t>(sz * sz), 0.0f);
        auto c_ref = c;
        sgemm(Order::RowMajor, Transpose::NoTrans, Transpose::NoTrans, sz,
              sz, sz, 1.0f, a.data(), sz, b.data(), sz, 0.0f, c.data(),
              sz);
        gemmOracle(Transpose::NoTrans, Transpose::NoTrans, sz, sz, sz,
                   1.0f, a, sz, b, sz, 0.0f, c_ref, sz);
        float max_err = 0.0f;
        for (std::size_t i = 0; i < c.size(); ++i)
            max_err = std::max(max_err, std::fabs(c[i] - c_ref[i]));
        EXPECT_LT(max_err, 1e-3f) << "size " << sz;
    }
}

TEST(Cgemm, ComplexMatchesOracle)
{
    const std::int64_t m = 7, n = 8, k = 6;
    Rng rng(41);
    auto a = randomCVec(m * k, rng);
    auto b = randomCVec(k * n, rng);
    auto c = randomCVec(m * n, rng);
    auto c_ref = c;
    cfloat alpha{0.5f, -0.25f}, beta{0.1f, 0.2f};
    cgemm(Order::RowMajor, Transpose::NoTrans, Transpose::ConjTrans, m, n,
          k, alpha, a.data(), k, b.data(), k, beta, c.data(), n);
    gemmOracle(Transpose::NoTrans, Transpose::ConjTrans, m, n, k, alpha,
               a, k, b, k, beta, c_ref, n);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(std::abs(c[i] - c_ref[i]), 0.0f, 1e-4f);
}

/** Oracle CHERK via explicit A*A^H computation on the full matrix. */
void
cherkOracle(Uplo uplo, Transpose trans, std::int64_t n, std::int64_t k,
            float alpha, const std::vector<cfloat> &a, std::int64_t lda,
            float beta, std::vector<cfloat> &c, std::int64_t ldc)
{
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            bool in_tri = uplo == Uplo::Upper ? j >= i : j <= i;
            if (!in_tri)
                continue;
            cfloat acc{};
            for (std::int64_t p = 0; p < k; ++p) {
                cfloat x = trans == Transpose::NoTrans
                               ? a[static_cast<std::size_t>(i * lda + p)]
                               : std::conj(a[static_cast<std::size_t>(
                                     p * lda + i)]);
                cfloat y = trans == Transpose::NoTrans
                               ? std::conj(a[static_cast<std::size_t>(
                                     j * lda + p)])
                               : a[static_cast<std::size_t>(p * lda + j)];
                acc += x * y;
            }
            auto idx = static_cast<std::size_t>(i * ldc + j);
            cfloat v = alpha * acc + beta * c[idx];
            if (i == j)
                v = {v.real(), 0.0f};
            c[idx] = v;
        }
    }
}

using CherkCombos = Blas3ParamTest<std::tuple<Uplo, Transpose>>;

TEST_P(CherkCombos, MatchesOracle)
{
    // Row-major A is n x k (NoTrans) or k x n (ConjTrans), with a padded
    // leading dimension whose padding holds a huge sentinel: reading it
    // would wreck the result. C is padded too and must keep its padding
    // and its unreferenced triangle.
    auto [uplo, trans] = GetParam();
    for (std::int64_t n : {1, 3, 4, 5, 8, 9, 42, 65}) {
        for (std::int64_t k : {1, 7, 32, 33}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " k=" + std::to_string(k));
            Rng rng(static_cast<std::uint64_t>(51 + 100 * n + k));
            const std::int64_t rows = trans == Transpose::NoTrans ? n : k;
            const std::int64_t cols = trans == Transpose::NoTrans ? k : n;
            const std::int64_t lda = cols + 3, ldc = n + 2;
            std::vector<cfloat> a(static_cast<std::size_t>(rows * lda),
                                  cfloat{1e30f, -1e30f});
            for (std::int64_t r = 0; r < rows; ++r)
                for (std::int64_t c = 0; c < cols; ++c)
                    a[static_cast<std::size_t>(r * lda + c)] = {
                        rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
            auto c0 = randomCVec(n * ldc, rng);
            // Make C Hermitian-ish on the diagonal as BLAS expects.
            for (std::int64_t i = 0; i < n; ++i)
                c0[static_cast<std::size_t>(i * ldc + i)] = {
                    c0[static_cast<std::size_t>(i * ldc + i)].real(), 0.0f};

            auto c = sameBitsEverywhere([&] {
                auto out = c0;
                cherk(Order::RowMajor, uplo, trans, n, k, 0.8f, a.data(),
                      lda, 0.5f, out.data(), ldc);
                return out;
            });
            auto c_ref = c0;
            cherkOracle(uplo, trans, n, k, 0.8f, a, lda, 0.5f, c_ref, ldc);
            for (std::size_t i = 0; i < c.size(); ++i)
                ASSERT_NEAR(std::abs(c[i] - c_ref[i]), 0.0f,
                            1e-5f * static_cast<float>(k + 1))
                    << "element " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    UploTrans, CherkCombos,
    ::testing::Combine(::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(Transpose::NoTrans,
                                         Transpose::ConjTrans)));

TEST(Cherk, HerkTileRepeatsTheScalarSequenceAtEveryLevel)
{
    // cherk rounds its f64 sums to f32, which hides most reorderings of
    // the sum, so the tile kernel's f64 outputs are pinned directly. The
    // planes hold f32 values, so every product is exact and the
    // reference below means the same under any FP contraction; their
    // exponents spread over 2^+-24 so that the f64 sums do round.
    const std::int64_t k = 37, ld = 24;
    Rng rng(97);
    auto value = [&] {
        const int e = static_cast<int>(rng.uniform(-24.0f, 24.0f));
        return static_cast<double>(std::ldexp(rng.uniform(-1.0f, 1.0f), e));
    };
    std::vector<double> re(static_cast<std::size_t>(k * ld));
    std::vector<double> im(re.size());
    for (std::size_t i = 0; i < re.size(); ++i) {
        re[i] = value();
        im[i] = value();
    }
    for (simd::SimdLevel level : simd::availableLevels()) {
        const simd::Kernels *sk = simd::tableFor(level);
        if (sk == nullptr)
            continue;
        for (bool conjLeft : {true, false}) {
            for (auto [i0, j0] : {std::pair<std::int64_t, std::int64_t>{0, 0},
                                  {4, 8}, {20, 16}}) {
                double outRe[32], outIm[32];
                sk->herkTile(k, ld, re.data(), im.data(), i0, j0, conjLeft,
                             outRe, outIm);
                for (int u = 0; u < 4; ++u) {
                    for (int v = 0; v < 8; ++v) {
                        double racc = 0.0, iacc = 0.0;
                        for (std::int64_t p = 0; p < k; ++p) {
                            const auto x = static_cast<std::size_t>(
                                p * ld + i0 + u);
                            const auto y = static_cast<std::size_t>(
                                p * ld + j0 + v);
                            const double xr = re[x], yr = re[y];
                            const double xi = conjLeft ? -im[x] : im[x];
                            const double yi = conjLeft ? im[y] : -im[y];
                            racc += xr * yr - xi * yi;
                            iacc += xr * yi + xi * yr;
                        }
                        EXPECT_EQ(std::memcmp(&outRe[8 * u + v], &racc,
                                              sizeof racc),
                                  0)
                            << simd::name(level) << " u=" << u
                            << " v=" << v;
                        EXPECT_EQ(std::memcmp(&outIm[8 * u + v], &iacc,
                                              sizeof iacc),
                                  0)
                            << simd::name(level) << " u=" << u
                            << " v=" << v;
                    }
                }
            }
        }
    }
}

TEST(Cherk, DiagonalStaysReal)
{
    const std::int64_t n = 8, k = 5;
    Rng rng(61);
    auto a = randomCVec(n * k, rng);
    std::vector<cfloat> c(static_cast<std::size_t>(n * n), cfloat{});
    cherk(Order::RowMajor, Uplo::Lower, Transpose::NoTrans, n, k, 1.0f,
          a.data(), k, 0.0f, c.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
        auto d = c[static_cast<std::size_t>(i * n + i)];
        EXPECT_FLOAT_EQ(d.imag(), 0.0f);
        EXPECT_GE(d.real(), 0.0f); // A*A^H is positive semidefinite
    }
}

TEST(Cherk, RejectsPlainTrans)
{
    std::vector<cfloat> a(4), c(4);
    EXPECT_THROW(cherk(Order::RowMajor, Uplo::Lower, Transpose::Trans, 2,
                       2, 1.0f, a.data(), 2, 0.0f, c.data(), 2),
                 mealib::FatalError);
}

TEST(Cherk, RejectsShortLeadingDimension)
{
    // NoTrans reads rows of k, ConjTrans rows of n: one short of either
    // would silently read the next row.
    std::vector<cfloat> a(64), c(64);
    EXPECT_THROW(cherk(Order::RowMajor, Uplo::Lower, Transpose::NoTrans, 4,
                       5, 1.0f, a.data(), 4, 0.0f, c.data(), 4),
                 mealib::FatalError);
    EXPECT_THROW(cherk(Order::RowMajor, Uplo::Lower, Transpose::ConjTrans,
                       4, 5, 1.0f, a.data(), 3, 0.0f, c.data(), 4),
                 mealib::FatalError);
    EXPECT_NO_THROW(cherk(Order::RowMajor, Uplo::Lower,
                          Transpose::ConjTrans, 4, 5, 1.0f, a.data(), 4,
                          0.0f, c.data(), 4));
}

TEST(Sgemm, RejectsShortLeadingDimensions)
{
    // Row-major op(A) is m x k and op(B) is k x n.
    std::vector<float> a(64), b(64), c(64);
    EXPECT_THROW(sgemm(Order::RowMajor, Transpose::NoTrans,
                       Transpose::NoTrans, 3, 4, 5, 1.0f, a.data(), 4,
                       b.data(), 4, 0.0f, c.data(), 4),
                 mealib::FatalError);
    EXPECT_THROW(sgemm(Order::RowMajor, Transpose::Trans,
                       Transpose::NoTrans, 3, 4, 5, 1.0f, a.data(), 2,
                       b.data(), 4, 0.0f, c.data(), 4),
                 mealib::FatalError);
    EXPECT_THROW(sgemm(Order::RowMajor, Transpose::NoTrans,
                       Transpose::NoTrans, 3, 4, 5, 1.0f, a.data(), 5,
                       b.data(), 3, 0.0f, c.data(), 4),
                 mealib::FatalError);
    EXPECT_THROW(sgemm(Order::RowMajor, Transpose::NoTrans,
                       Transpose::Trans, 3, 4, 5, 1.0f, a.data(), 5,
                       b.data(), 4, 0.0f, c.data(), 4),
                 mealib::FatalError);
    EXPECT_NO_THROW(sgemm(Order::RowMajor, Transpose::Trans,
                          Transpose::Trans, 3, 4, 5, 1.0f, a.data(), 3,
                          b.data(), 5, 0.0f, c.data(), 4));
}

/** Build a well-conditioned triangular matrix. */
std::vector<cfloat>
triangular(std::int64_t n, Uplo uplo, Rng &rng)
{
    std::vector<cfloat> a(static_cast<std::size_t>(n * n), cfloat{});
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            bool in_tri = uplo == Uplo::Upper ? j >= i : j <= i;
            if (!in_tri)
                continue;
            auto idx = static_cast<std::size_t>(i * n + j);
            if (i == j)
                a[idx] = {rng.uniform(1.0f, 2.0f), 0.0f}; // dominant diag
            else
                a[idx] = {rng.uniform(-0.3f, 0.3f),
                          rng.uniform(-0.3f, 0.3f)};
        }
    }
    return a;
}

using TrsmCombos =
    Blas3ParamTest<std::tuple<Side, Uplo, Transpose, Diag>>;

TEST_P(TrsmCombos, SolveThenMultiplyRoundTrips)
{
    // Non-square B (m != n, with an odd width that leaves vector tails)
    // and padded leading dimensions on both operands.
    auto [side, uplo, trans, diag] = GetParam();
    const std::int64_t m = 13, n = 7;
    Rng rng(71);
    const std::int64_t adim = side == Side::Left ? m : n;
    const std::int64_t lda = adim + 2, ldb = n + 3;
    auto tri = triangular(adim, uplo, rng);
    if (diag == Diag::Unit) {
        // Unit diagonal: stored diagonal is ignored; poison it.
        for (std::int64_t i = 0; i < adim; ++i)
            tri[static_cast<std::size_t>(i * adim + i)] = {77.0f, 77.0f};
    }
    std::vector<cfloat> a(static_cast<std::size_t>(adim * lda),
                          cfloat{1e30f, 1e30f});
    for (std::int64_t i = 0; i < adim; ++i)
        for (std::int64_t j = 0; j < adim; ++j)
            a[static_cast<std::size_t>(i * lda + j)] =
                tri[static_cast<std::size_t>(i * adim + j)];
    auto b0 = randomCVec(m * ldb, rng);
    cfloat alpha{1.5f, -0.5f};

    auto b = sameBitsEverywhere([&] {
        auto out = b0;
        ctrsm(Order::RowMajor, side, uplo, trans, diag, m, n, alpha,
              a.data(), lda, out.data(), ldb);
        return out;
    });

    // Multiply back: op(A)*X (Left) or X*op(A) (Right), with the unit
    // diagonal imposed when requested.
    auto a_eff = tri;
    if (diag == Diag::Unit)
        for (std::int64_t i = 0; i < adim; ++i)
            a_eff[static_cast<std::size_t>(i * adim + i)] = {1.0f, 0.0f};
    std::vector<cfloat> x(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            x[static_cast<std::size_t>(i * n + j)] =
                b[static_cast<std::size_t>(i * ldb + j)];
    std::vector<cfloat> back(static_cast<std::size_t>(m * n), cfloat{});
    if (side == Side::Left) {
        gemmOracle(trans, Transpose::NoTrans, m, n, m, cfloat{1, 0},
                   a_eff, adim, x, n, cfloat{0, 0}, back, n);
    } else {
        gemmOracle(Transpose::NoTrans, trans, m, n, n, cfloat{1, 0}, x, n,
                   a_eff, adim, cfloat{0, 0}, back, n);
    }
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < ldb; ++j) {
            const auto idx = static_cast<std::size_t>(i * ldb + j);
            if (j >= n) {
                EXPECT_EQ(b[idx], b0[idx]) << "padding " << i << "," << j;
                continue;
            }
            EXPECT_NEAR(std::abs(back[static_cast<std::size_t>(i * n + j)] -
                                 alpha * b0[idx]),
                        0.0f, 2e-3f)
                << i << "," << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrsmCombos,
    ::testing::Combine(
        ::testing::Values(Side::Left, Side::Right),
        ::testing::Values(Uplo::Upper, Uplo::Lower),
        ::testing::Values(Transpose::NoTrans, Transpose::Trans,
                          Transpose::ConjTrans),
        ::testing::Values(Diag::NonUnit, Diag::Unit)));

TEST(Strsm, RealSolveRoundTrips)
{
    const std::int64_t m = 12, n = 5;
    Rng rng(81);
    std::vector<float> a(static_cast<std::size_t>(m * m), 0.0f);
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j <= i; ++j)
            a[static_cast<std::size_t>(i * m + j)] =
                i == j ? rng.uniform(1.0f, 2.0f)
                       : rng.uniform(-0.3f, 0.3f);
    auto b = randomVec(m * n, rng);
    auto b0 = b;
    strsm(Order::RowMajor, Side::Left, Uplo::Lower, Transpose::NoTrans,
          Diag::NonUnit, m, n, 1.0f, a.data(), m, b.data(), n);
    // back = A * X should equal b0
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p <= i; ++p)
                acc += static_cast<double>(
                           a[static_cast<std::size_t>(i * m + p)]) *
                       b[static_cast<std::size_t>(p * n + j)];
            EXPECT_NEAR(acc, b0[static_cast<std::size_t>(i * n + j)],
                        1e-3);
        }
    }
}

TEST(Strsm, ConjTransIsFatalForReal)
{
    std::vector<float> a(4, 1.0f), b(4, 1.0f);
    EXPECT_THROW(strsm(Order::RowMajor, Side::Left, Uplo::Lower,
                       Transpose::ConjTrans, Diag::NonUnit, 2, 2, 1.0f,
                       a.data(), 2, b.data(), 2),
                 mealib::FatalError);
}

TEST(Ctrsm, ColMajorAgreesWithRowMajor)
{
    const std::int64_t m = 6, n = 4;
    Rng rng(91);
    auto a = triangular(m, Uplo::Lower, rng);
    auto b = randomCVec(m * n, rng);

    // Row-major solve.
    auto b_rm = b;
    ctrsm(Order::RowMajor, Side::Left, Uplo::Lower, Transpose::NoTrans,
          Diag::NonUnit, m, n, {1, 0}, a.data(), m, b_rm.data(), n);

    // Column-major copies of the same logical A (lower) and B.
    std::vector<cfloat> a_cm(a.size()), b_cm(b.size());
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < m; ++j)
            a_cm[static_cast<std::size_t>(j * m + i)] =
                a[static_cast<std::size_t>(i * m + j)];
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            b_cm[static_cast<std::size_t>(j * m + i)] =
                b[static_cast<std::size_t>(i * n + j)];
    ctrsm(Order::ColMajor, Side::Left, Uplo::Lower, Transpose::NoTrans,
          Diag::NonUnit, m, n, {1, 0}, a_cm.data(), m, b_cm.data(), m);

    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            EXPECT_NEAR(
                std::abs(b_rm[static_cast<std::size_t>(i * n + j)] -
                         b_cm[static_cast<std::size_t>(j * m + i)]),
                0.0f, 1e-4f);
}

/**
 * cdivRow's formula written out: widen to f64, den = c^2 + d^2, each
 * numerator and quotient rounded once, and NaN + iNaN redone with
 * std::complex division. Every product of two widened floats is exact,
 * so FP contraction cannot change this reference.
 */
cfloat
divideReference(cfloat x, cfloat dv)
{
    const double a = x.real(), b = x.imag();
    const double c = dv.real(), d = dv.imag();
    const double den = c * c + d * d;
    const auto re = static_cast<float>((a * c + b * d) / den);
    const auto im = static_cast<float>((b * c - a * d) / den);
    if (std::isnan(re) && std::isnan(im))
        return x / dv;
    return {re, im};
}

/** Operands for the division tests: random, extreme and special. */
std::vector<cfloat>
divisionOperands(std::uint64_t seed)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float specials[] = {0.0f,
                              -0.0f,
                              1.0f,
                              -3.5f,
                              inf,
                              -inf,
                              nan,
                              std::numeric_limits<float>::denorm_min(),
                              -1.5e-40f,
                              std::numeric_limits<float>::min(),
                              std::numeric_limits<float>::max(),
                              -std::numeric_limits<float>::max()};
    std::vector<cfloat> v;
    for (float re : specials)
        for (float im : specials)
            v.push_back({re, im});
    Rng rng(seed);
    for (int i = 0; i < 2000; ++i) {
        // Exponents over +-140 reach subnormals, overflow and zeros.
        auto value = [&] {
            const int e = static_cast<int>(rng.uniform(-140.0f, 140.0f));
            return std::ldexp(rng.uniform(-1.0f, 1.0f), e);
        };
        v.push_back({value(), value()});
    }
    return v;
}

TEST(Cdiv, RowDivisionMatchesTheReferenceAtEveryLevel)
{
    const std::vector<cfloat> xs = divisionOperands(11);
    std::vector<cfloat> divisors = divisionOperands(12);
    divisors.resize(400); // every special pair, then random ones
    for (simd::SimdLevel level : simd::availableLevels()) {
        const simd::Kernels *sk = simd::tableFor(level);
        for (cfloat dv : divisors) {
            // Every row length up to 9 covers each vector tail.
            for (std::size_t len : {xs.size(), std::size_t{1},
                                    std::size_t{3}, std::size_t{9}}) {
                std::vector<cfloat> got(xs.begin(), xs.begin() + len);
                auto *f = reinterpret_cast<float *>(got.data());
                const auto n = static_cast<std::int64_t>(len);
                if (sk != nullptr)
                    sk->cdivRow(n, dv.real(), dv.imag(), f);
                else
                    simd::cdivRowScalar(n, dv.real(), dv.imag(), f);
                for (std::size_t i = 0; i < len; ++i) {
                    const cfloat want = divideReference(xs[i], dv);
                    ASSERT_EQ(std::memcmp(&got[i], &want, sizeof want), 0)
                        << simd::name(level) << " " << xs[i] << " / " << dv
                        << " got " << got[i] << " want " << want;
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
                    // libgcc 12's __divsc3 is this formula.
                    const cfloat lib = xs[i] / dv;
                    ASSERT_EQ(std::memcmp(&got[i], &lib, sizeof lib), 0)
                        << simd::name(level) << " " << xs[i] << " / " << dv
                        << " got " << got[i] << " libgcc " << lib;
#endif
                }
            }
        }
    }
}

/** Row-major Hermitian positive-definite B^H B + n I, padded to lda. */
std::vector<cfloat>
hpdMatrix(std::int64_t n, std::int64_t lda, Rng &rng)
{
    auto b = randomCVec(n * n, rng);
    std::vector<cfloat> a(static_cast<std::size_t>(n * lda),
                          cfloat{1e30f, 1e30f});
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            cfloat acc = i == j ? cfloat{static_cast<float>(n), 0.0f}
                                : cfloat{};
            for (std::int64_t p = 0; p < n; ++p)
                acc += std::conj(b[static_cast<std::size_t>(p * n + i)]) *
                       b[static_cast<std::size_t>(p * n + j)];
            a[static_cast<std::size_t>(i * lda + j)] = acc;
        }
        a[static_cast<std::size_t>(i * lda + i)] = {
            a[static_cast<std::size_t>(i * lda + i)].real(), 0.0f};
    }
    return a;
}

TEST_F(Blas3Test, CpotrfFactorsAtEverySizeLevelAndThreadCount)
{
    for (std::int64_t n : {1, 2, 7, 8, 9, 42, 48}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        Rng rng(static_cast<std::uint64_t>(300 + n));
        const std::int64_t lda = n + 3;
        const auto a0 = hpdMatrix(n, lda, rng);
        auto l = sameBitsEverywhere([&] {
            auto out = a0;
            cpotrf(n, out.data(), lda);
            return out;
        });
        for (std::int64_t i = 0; i < n; ++i) {
            for (std::int64_t j = 0; j < lda; ++j) {
                const auto idx = static_cast<std::size_t>(i * lda + j);
                if (j >= n) {
                    EXPECT_EQ(l[idx], a0[idx]) << "padding";
                } else if (j > i) {
                    EXPECT_EQ(l[idx], cfloat{}) << "upper " << i << "," << j;
                } else {
                    // (L L^H)[i, j] must rebuild the lower triangle of A.
                    cfloat acc{};
                    for (std::int64_t p = 0; p <= j; ++p)
                        acc += l[static_cast<std::size_t>(i * lda + p)] *
                               std::conj(
                                   l[static_cast<std::size_t>(j * lda + p)]);
                    EXPECT_NEAR(std::abs(acc - a0[idx]), 0.0f,
                                1e-4f * static_cast<float>(n))
                        << i << "," << j;
                }
            }
        }
    }
}

TEST_F(Blas3Test, CpotrfRejectsNonPositiveDefinite)
{
    // A negative pivot, and a zero pivot reached after elimination
    // ([[1, 1], [1, 1]] is singular), at every level.
    for (simd::SimdLevel level : simd::availableLevels()) {
        kernelTuning().simd = level;
        std::vector<cfloat> neg = {{-1.0f, 0.0f}, {}, {}, {1.0f, 0.0f}};
        EXPECT_THROW(cpotrf(2, neg.data(), 2), mealib::FatalError)
            << simd::name(level);
        std::vector<cfloat> sing(9, cfloat{1.0f, 0.0f});
        EXPECT_THROW(cpotrf(3, sing.data(), 3), mealib::FatalError)
            << simd::name(level);
    }
    std::vector<cfloat> a(4, cfloat{1.0f, 0.0f});
    EXPECT_THROW(cpotrf(2, a.data(), 1), mealib::FatalError);
    EXPECT_THROW(cpotrf(-1, a.data(), 1), mealib::FatalError);
    EXPECT_NO_THROW(cpotrf(0, a.data(), 0));
}

} // namespace
} // namespace mealib::mkl

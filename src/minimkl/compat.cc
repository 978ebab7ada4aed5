#include "minimkl/compat.hh"

#include <vector>

#include "common/logging.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/opdesc.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas2.hh"
#include "minimkl/blas3.hh"
#include "minimkl/fft.hh"
#include "minimkl/resample.hh"
#include "minimkl/sparse.hh"
#include "minimkl/transpose.hh"

namespace mkl = mealib::mkl;
namespace dsp = mealib::dispatch;

namespace {

mkl::Order
toOrder(CBLAS_LAYOUT l)
{
    return static_cast<mkl::Order>(l);
}

mkl::Transpose
toTrans(CBLAS_TRANSPOSE t)
{
    return static_cast<mkl::Transpose>(t);
}

const mkl::cfloat *
cf(const void *p)
{
    return static_cast<const mkl::cfloat *>(p);
}

mkl::cfloat *
cf(void *p)
{
    return static_cast<mkl::cfloat *>(p);
}

/** The one seam every shim dispatches through. */
void
run(const dsp::OpDesc &desc, dsp::HostFn hostFn)
{
    dsp::currentDispatcher().run(desc, hostFn);
}

} // namespace

void
cblas_saxpy(int n, float a, const float *x, int incx, float *y, int incy)
{
    run(dsp::lowerSaxpy(n, a, x, incx, y, incy),
        [&] { mkl::saxpy(n, a, x, incx, y, incy); });
}

float
cblas_sdot(int n, const float *x, int incx, const float *y, int incy)
{
    float r = 0.0f;
    run(dsp::lowerSdot(n, x, incx, y, incy, &r),
        [&] { r = mkl::sdot(n, x, incx, y, incy); });
    return r;
}

void
cblas_sscal(int n, float a, float *x, int incx)
{
    run(dsp::lowerSscal(n, x, incx),
        [&] { mkl::sscal(n, a, x, incx); });
}

void
cblas_saxpby(int n, float a, const float *x, int incx, float b, float *y,
             int incy)
{
    run(dsp::lowerSaxpby(n, a, x, incx, b, y, incy),
        [&] { mkl::saxpby(n, a, x, incx, b, y, incy); });
}

void
cblas_scopy(int n, const float *x, int incx, float *y, int incy)
{
    run(dsp::lowerScopy(n, x, incx, y, incy),
        [&] { mkl::scopy(n, x, incx, y, incy); });
}

void
cblas_cdotc_sub(int n, const void *x, int incx, const void *y, int incy,
                void *dotc)
{
    run(dsp::lowerCdotc(n, cf(x), incx, cf(y), incy, cf(dotc)),
        [&] { *cf(dotc) = mkl::cdotc(n, cf(x), incx, cf(y), incy); });
}

void
cblas_caxpy(int n, const void *a, const void *x, int incx, void *y,
            int incy)
{
    run(dsp::lowerCaxpy(n, *cf(a), cf(x), incx, cf(y), incy),
        [&] { mkl::caxpy(n, *cf(a), cf(x), incx, cf(y), incy); });
}

void
cblas_sgemv(CBLAS_LAYOUT layout, CBLAS_TRANSPOSE trans, int m, int n,
            float alpha, const float *a, int lda, const float *x, int incx,
            float beta, float *y, int incy)
{
    run(dsp::lowerSgemv(toOrder(layout), toTrans(trans), m, n, alpha, a,
                        lda, x, incx, beta, y, incy),
        [&] {
            mkl::sgemv(toOrder(layout), toTrans(trans), m, n, alpha, a,
                       lda, x, incx, beta, y, incy);
        });
}

void
cblas_sgemm(CBLAS_LAYOUT layout, CBLAS_TRANSPOSE transa,
            CBLAS_TRANSPOSE transb, int m, int n, int k, float alpha,
            const float *a, int lda, const float *b, int ldb, float beta,
            float *c, int ldc)
{
    run(dsp::lowerSgemm(m, n, k, a, b, beta, c), [&] {
        mkl::sgemm(toOrder(layout), toTrans(transa), toTrans(transb), m,
                   n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    });
}

void
cblas_cherk(CBLAS_LAYOUT layout, CBLAS_UPLO uplo, CBLAS_TRANSPOSE trans,
            int n, int k, float alpha, const void *a, int lda, float beta,
            void *c, int ldc)
{
    run(dsp::lowerCherk(n, k, cf(a), beta, cf(c)), [&] {
        mkl::cherk(toOrder(layout), static_cast<mkl::Uplo>(uplo),
                   toTrans(trans), n, k, alpha, cf(a), lda, beta, cf(c),
                   ldc);
    });
}

void
cblas_ctrsm(CBLAS_LAYOUT layout, CBLAS_SIDE side, CBLAS_UPLO uplo,
            CBLAS_TRANSPOSE trans, CBLAS_DIAG diag, int m, int n,
            const void *alpha, const void *a, int lda, void *b, int ldb)
{
    run(dsp::lowerCtrsm(m, n, cf(a), cf(b)), [&] {
        mkl::ctrsm(toOrder(layout), static_cast<mkl::Side>(side),
                   static_cast<mkl::Uplo>(uplo), toTrans(trans),
                   static_cast<mkl::Diag>(diag), m, n, *cf(alpha), cf(a),
                   lda, cf(b), ldb);
    });
}

void
mkl_scsrgemv(const char *transa, const int *m, const float *a,
             const int *ia, const int *ja, const float *x, float *y)
{
    mealib::fatalIf(transa == nullptr || m == nullptr,
                    "mkl_scsrgemv: null argument");
    const std::int64_t rows = *m;
    // The classic 1-based arrays are consumed in place (no CsrMatrix
    // copy): the raw kernels adjust for the index base per access.
    static_assert(sizeof(int) == sizeof(std::int32_t),
                  "mkl_scsrgemv assumes 32-bit int indices");
    const auto *ia32 = reinterpret_cast<const std::int32_t *>(ia);
    const auto *ja32 = reinterpret_cast<const std::int32_t *>(ja);

    const char t = *transa;
    if (t == 'N' || t == 'n') {
        run(dsp::lowerScsrgemv1(rows, a, ia32, ja32, x, y, false),
            [&] { mkl::scsrmvRaw1(rows, ia32, ja32, a, x, y); });
    } else if (t == 'T' || t == 't') {
        run(dsp::lowerScsrgemv1(rows, a, ia32, ja32, x, y, true),
            [&] { mkl::scsrmvTransRaw1(rows, ia32, ja32, a, x, y); });
    } else {
        mealib::fatal("mkl_scsrgemv: bad transa '", t, "'");
    }
}

namespace {

mkl::Order
charOrder(char ordering)
{
    switch (ordering) {
      case 'R':
      case 'r':
        return mkl::Order::RowMajor;
      case 'C':
      case 'c':
        return mkl::Order::ColMajor;
      default:
        mealib::fatal("imatcopy: bad ordering '", ordering, "'");
    }
}

mkl::Transpose
charTrans(char trans)
{
    switch (trans) {
      case 'N':
      case 'n':
      case 'R': // conjugate-no-transpose degrades to NoTrans for reals
      case 'r':
        return mkl::Transpose::NoTrans;
      case 'T':
      case 't':
        return mkl::Transpose::Trans;
      case 'C':
      case 'c':
        return mkl::Transpose::ConjTrans;
      default:
        mealib::fatal("imatcopy: bad trans '", trans, "'");
    }
}

} // namespace

void
mkl_simatcopy(char ordering, char trans, std::size_t rows,
              std::size_t cols, float alpha, float *ab, std::size_t lda,
              std::size_t ldb)
{
    const auto r = static_cast<std::int64_t>(rows);
    const auto c = static_cast<std::int64_t>(cols);
    // Only the square unit-alpha transpose matches the RESHP COMP (the
    // accelerator's functional path is an in-place imatcopy).
    const bool mappable =
        charTrans(trans) == mkl::Transpose::Trans && r == c &&
        alpha == 1.0f;
    run(dsp::lowerTranspose(r, c, alpha, ab, ab, false, mappable), [&] {
        mkl::simatcopy(charOrder(ordering), charTrans(trans), r, c,
                       alpha, ab, static_cast<std::int64_t>(lda),
                       static_cast<std::int64_t>(ldb));
    });
}

void
mkl_somatcopy(char ordering, char trans, std::size_t rows,
              std::size_t cols, float alpha, const float *a,
              std::size_t lda, float *b, std::size_t ldb)
{
    const auto r = static_cast<std::int64_t>(rows);
    const auto c = static_cast<std::int64_t>(cols);
    run(dsp::lowerTranspose(r, c, alpha, a, b, false, false), [&] {
        mkl::somatcopy(charOrder(ordering), charTrans(trans), r, c,
                       alpha, a, static_cast<std::int64_t>(lda), b,
                       static_cast<std::int64_t>(ldb));
    });
}

int
dfsInterpolate1D(const float *x, int nx, float *site, int nsite)
{
    if (x == nullptr || site == nullptr || nx <= 0 || nsite <= 0)
        return -1;
    run(dsp::lowerResample(x, nx, site, nsite), [&] {
        mkl::resample1d(x, nx, site, nsite, mkl::InterpKind::Linear);
    });
    return 0;
}

// --- FFTW shims --------------------------------------------------------------

struct fftwf_plan_s
{
    mkl::FftPlan plan;
    const mkl::cfloat *in;
    mkl::cfloat *out;
};

fftwf_plan
fftwf_plan_guru_dft(int rank, const fftwf_iodim *dims, int howmany_rank,
                    const fftwf_iodim *howmany_dims, fftwf_complex *in,
                    fftwf_complex *out, int sign, unsigned flags)
{
    (void)flags; // planning rigor flags don't change semantics here
    mealib::fatalIf(rank < 0 || howmany_rank < 0,
                    "fftwf_plan_guru_dft: negative rank");
    std::vector<mkl::FftDim> d;
    for (int i = 0; i < rank; ++i)
        d.push_back({dims[i].n, dims[i].is, dims[i].os});
    std::vector<mkl::FftDim> h;
    for (int i = 0; i < howmany_rank; ++i)
        h.push_back({howmany_dims[i].n, howmany_dims[i].is,
                     howmany_dims[i].os});
    auto dir = sign == FFTW_FORWARD ? mkl::FftDirection::Forward
                                    : mkl::FftDirection::Inverse;
    // fftwf_complex is layout-compatible with std::complex<float>.
    return new fftwf_plan_s{
        mkl::FftPlan(std::move(d), std::move(h), dir),
        reinterpret_cast<const mkl::cfloat *>(in),
        reinterpret_cast<mkl::cfloat *>(out)};
}

void
fftwf_execute(const fftwf_plan plan)
{
    mealib::fatalIf(plan == nullptr, "fftwf_execute: null plan");
    run(dsp::lowerFft(plan->plan, plan->in, plan->out),
        [&] { plan->plan.execute(plan->in, plan->out); });
}

void
fftwf_destroy_plan(fftwf_plan plan)
{
    delete plan;
}

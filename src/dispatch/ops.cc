#include "dispatch/ops.hh"

#include "dispatch/dispatcher.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas2.hh"
#include "minimkl/blas3.hh"
#include "minimkl/transpose.hh"

namespace mealib::dispatch::ops {

void
saxpy(std::int64_t n, float a, const float *x, std::int64_t incx,
      float *y, std::int64_t incy)
{
    OpDesc d = lowerSaxpy(n, a, x, incx, y, incy);
    currentDispatcher().run(
        d, [&] { mkl::saxpy(n, a, x, incx, y, incy); });
}

void
saxpby(std::int64_t n, float a, const float *x, std::int64_t incx,
       float b, float *y, std::int64_t incy)
{
    OpDesc d = lowerSaxpby(n, a, x, incx, b, y, incy);
    currentDispatcher().run(
        d, [&] { mkl::saxpby(n, a, x, incx, b, y, incy); });
}

void
caxpy(std::int64_t n, mkl::cfloat a, const mkl::cfloat *x,
      std::int64_t incx, mkl::cfloat *y, std::int64_t incy)
{
    OpDesc d = lowerCaxpy(n, a, x, incx, y, incy);
    currentDispatcher().run(
        d, [&] { mkl::caxpy(n, a, x, incx, y, incy); });
}

float
sdot(std::int64_t n, const float *x, std::int64_t incx, const float *y,
     std::int64_t incy)
{
    float r = 0.0f;
    OpDesc d = lowerSdot(n, x, incx, y, incy, &r);
    currentDispatcher().run(
        d, [&] { r = mkl::sdot(n, x, incx, y, incy); });
    return r;
}

mkl::cfloat
cdotc(std::int64_t n, const mkl::cfloat *x, std::int64_t incx,
      const mkl::cfloat *y, std::int64_t incy)
{
    // STAP issues ~1M of these per pass, nearly all of one shape. Each
    // thread keeps its last lowering, flops and traffic priced once, and
    // re-aims only the operand pointers while the shape repeats: a fresh
    // OpDesc is a 448-byte zero fill, and repricing its traffic costs
    // about as much again.
    thread_local OpDesc d;
    mkl::cfloat r{};
    if (n > 0 && static_cast<std::uint64_t>(n) == d.call.n &&
        incx == d.call.inc0 && incy == d.call.inc1) {
        d.operands[0].host = x;
        d.operands[1].host = y;
        d.operands[4].host = &r;
    } else {
        d = lowerCdotc(n, x, incx, y, incy, &r);
        d.flopsOverride = d.flops();
        d.bytesOverride = d.bytes();
    }
    currentDispatcher().run(
        d, [&] { r = mkl::cdotc(n, x, incx, y, incy); });
    return r;
}

void
sgemv(mkl::Order order, mkl::Transpose trans, std::int64_t m,
      std::int64_t n, float alpha, const float *a, std::int64_t lda,
      const float *x, std::int64_t incx, float beta, float *y,
      std::int64_t incy)
{
    OpDesc d = lowerSgemv(order, trans, m, n, alpha, a, lda, x, incx,
                          beta, y, incy);
    currentDispatcher().run(d, [&] {
        mkl::sgemv(order, trans, m, n, alpha, a, lda, x, incx, beta, y,
                   incy);
    });
}

void
scsrmv(const mkl::CsrMatrix &a, const float *x, float *y)
{
    OpDesc d = lowerScsrmv(a, x, y);
    currentDispatcher().run(d, [&] { mkl::scsrmv(a, x, y); });
}

void
cherk(mkl::Order order, mkl::Uplo uplo, mkl::Transpose trans,
      std::int64_t n, std::int64_t k, float alpha, const mkl::cfloat *a,
      std::int64_t lda, float beta, mkl::cfloat *c, std::int64_t ldc)
{
    OpDesc d = lowerCherk(n, k, a, beta, c);
    currentDispatcher().run(d, [&] {
        mkl::cherk(order, uplo, trans, n, k, alpha, a, lda, beta, c,
                   ldc);
    });
}

void
ctrsm(mkl::Order order, mkl::Side side, mkl::Uplo uplo,
      mkl::Transpose trans, mkl::Diag diag, std::int64_t m,
      std::int64_t n, mkl::cfloat alpha, const mkl::cfloat *a,
      std::int64_t lda, mkl::cfloat *b, std::int64_t ldb)
{
    OpDesc d = lowerCtrsm(m, n, a, b);
    currentDispatcher().run(d, [&] {
        mkl::ctrsm(order, side, uplo, trans, diag, m, n, alpha, a, lda,
                   b, ldb);
    });
}

void
comatcopy(mkl::Order order, mkl::Transpose trans, std::int64_t rows,
          std::int64_t cols, mkl::cfloat alpha, const mkl::cfloat *a,
          std::int64_t lda, mkl::cfloat *b, std::int64_t ldb)
{
    // The RESHP accelerator's functional path handles the in-place
    // real transpose; out-of-place complex copies stay host-side, so
    // mark the mapping unavailable while keeping the decision honest.
    OpDesc d =
        lowerTranspose(rows, cols, alpha.real(),
                       reinterpret_cast<const float *>(a),
                       reinterpret_cast<float *>(b), true, false);
    currentDispatcher().run(d, [&] {
        mkl::comatcopy(order, trans, rows, cols, alpha, a, lda, b, ldb);
    });
}

} // namespace mealib::dispatch::ops

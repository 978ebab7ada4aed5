/**
 * @file
 * Level-3 BLAS. MEALib leaves these compute-bounded routines on the host
 * (paper Table 4: cherk and ctrsm stay on the multicore), but the STAP
 * application needs functionally correct implementations, so MiniMKL
 * provides cache-blocked versions.
 */

#ifndef MEALIB_MINIMKL_BLAS3_HH
#define MEALIB_MINIMKL_BLAS3_HH

#include <cstdint>

#include "minimkl/types.hh"

namespace mealib::mkl {

/** C := alpha*op(A)*op(B) + beta*C (single precision, blocked). */
void sgemm(Order order, Transpose transa, Transpose transb, std::int64_t m,
           std::int64_t n, std::int64_t k, float alpha, const float *a,
           std::int64_t lda, const float *b, std::int64_t ldb, float beta,
           float *c, std::int64_t ldc);

/** C := alpha*op(A)*op(B) + beta*C (complex single precision). */
void cgemm(Order order, Transpose transa, Transpose transb, std::int64_t m,
           std::int64_t n, std::int64_t k, cfloat alpha, const cfloat *a,
           std::int64_t lda, const cfloat *b, std::int64_t ldb, cfloat beta,
           cfloat *c, std::int64_t ldc);

/**
 * Hermitian rank-k update: C := alpha*A*A^H + beta*C (trans == NoTrans)
 * or C := alpha*A^H*A + beta*C (trans == ConjTrans). Only the @p uplo
 * triangle of C is referenced/updated; alpha and beta are real as in the
 * CBLAS interface.
 */
void cherk(Order order, Uplo uplo, Transpose trans, std::int64_t n,
           std::int64_t k, float alpha, const cfloat *a, std::int64_t lda,
           float beta, cfloat *c, std::int64_t ldc);

/**
 * Triangular solve with multiple right-hand sides:
 * op(A)*X = alpha*B (side == Left) or X*op(A) = alpha*B (side == Right);
 * B is overwritten with X.
 */
void ctrsm(Order order, Side side, Uplo uplo, Transpose trans, Diag diag,
           std::int64_t m, std::int64_t n, cfloat alpha, const cfloat *a,
           std::int64_t lda, cfloat *b, std::int64_t ldb);

/**
 * Cholesky factorization A = L * L^H of a Hermitian positive-definite
 * row-major n x n matrix, in place: reads the lower triangle, writes L
 * there and zeroes the strict upper triangle. fatal() when a pivot is
 * not positive.
 */
void cpotrf(std::int64_t n, cfloat *a, std::int64_t lda);

/** Single-precision real TRSM (same semantics as ctrsm). */
void strsm(Order order, Side side, Uplo uplo, Transpose trans, Diag diag,
           std::int64_t m, std::int64_t n, float alpha, const float *a,
           std::int64_t lda, float *b, std::int64_t ldb);

} // namespace mealib::mkl

#endif // MEALIB_MINIMKL_BLAS3_HH

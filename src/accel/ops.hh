/**
 * @file
 * Accelerated operations: the seven memory-bounded library routines of
 * Table 1, and the parameter records that describe one invocation.
 *
 * An OpCall is the common currency between the TDL compiler (which
 * serializes it into the descriptor's Parameter Region), the analytical
 * performance model (which derives the DRAM access streams from it) and
 * the functional executor on the accelerator layer (which computes the
 * actual result in simulated physical memory).
 */

#ifndef MEALIB_ACCEL_OPS_HH
#define MEALIB_ACCEL_OPS_HH

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/units.hh"

namespace mealib::accel {

/** The accelerator kinds of Table 1, in opcode order. */
enum class AccelKind : std::uint8_t
{
    AXPY = 0, //!< vector scaling and add        (cblas_saxpy)
    DOT,      //!< dot product                    (cblas_sdot / cdotc)
    GEMV,     //!< dense matrix-vector multiply   (cblas_sgemv)
    SPMV,     //!< sparse matrix-vector multiply  (mkl_scsrgemv)
    RESMP,    //!< 1D data resampling             (dfsInterpolate1D)
    FFT,      //!< fast Fourier transform         (fftwf_execute)
    RESHP,    //!< matrix transpose / data reshape (mkl_simatcopy)
    kCount,
};

/** Human-readable accelerator name ("AXPY", ...). */
const char *name(AccelKind kind);

/** Number of loop dimensions a descriptor LOOP block may carry. */
inline constexpr unsigned kMaxLoopDims = 4;

/**
 * Iteration space of a LOOP block. The paper's compiler flattens OpenMP
 * for-nests (up to 4 deep, as in the STAP inner-product nest) into one
 * LOOP whose dimensions match the source loops.
 */
struct LoopSpec
{
    std::array<std::uint32_t, kMaxLoopDims> dims{1, 1, 1, 1};

    std::uint64_t
    iterations() const
    {
        std::uint64_t t = 1;
        for (auto d : dims)
            t *= d;
        return t;
    }
};

/**
 * One operand of an accelerated call: a base physical address plus a
 * byte stride per loop dimension (base + sum_d idx_d * stride_d).
 */
struct OperandRef
{
    Addr base = 0;
    std::array<std::int64_t, kMaxLoopDims> stride{0, 0, 0, 0};

    /** Effective address at a loop index. */
    Addr
    at(const std::array<std::uint32_t, kMaxLoopDims> &idx) const
    {
        std::int64_t off = 0;
        for (unsigned d = 0; d < kMaxLoopDims; ++d)
            off += static_cast<std::int64_t>(idx[d]) * stride[d];
        return base + static_cast<Addr>(off);
    }
};

/** One accelerator invocation (a COMP block in TDL terms). */
struct OpCall
{
    AccelKind kind = AccelKind::AXPY;

    // Dimensions; meaning depends on kind:
    //   AXPY/DOT:  n = vector length
    //   GEMV:      m x n matrix
    //   SPMV:      m rows, k nonzeros, n columns
    //   RESMP:     n input samples -> m output samples
    //   FFT:       n points per transform, m transforms (batch);
    //              k = rows for a rank-2 (k x n) transform, 0 for rank 1
    //   RESHP:     m x n matrix transpose
    std::uint64_t n = 0;
    std::uint64_t m = 1;
    std::uint64_t k = 0;

    std::int64_t inc0 = 1;    //!< element stride within first operand
    std::int64_t inc1 = 1;    //!< element stride within second operand
    float alpha = 1.0f;
    float beta = 0.0f;
    bool complexData = false; //!< operate on cfloat instead of float
    bool conjugate = false;   //!< DOT: conjugated (cdotc) variant
    std::int32_t fftDir = -1; //!< FFTW sign convention
    std::uint32_t resampleKind = 0; //!< mkl::InterpKind value

    OperandRef in0; //!< x / A / rowPtr / input
    OperandRef in1; //!< y-in / x / colIdx
    OperandRef in2; //!< SPMV values
    OperandRef in3; //!< SPMV x vector
    OperandRef out; //!< result

    /** Bytes per element given complexData. */
    std::uint64_t
    elemBytes() const
    {
        return complexData ? 8 : 4;
    }

    /** Floating point operations of ONE iteration of this call. */
    double flops() const;

    /** DRAM traffic (bytes) of one iteration, reads + writes. */
    double trafficBytes() const;

    /**
     * Input-operand footprint of one iteration: the bytes the host may
     * hold dirty in its caches and must flush before handing the
     * operation to the accelerators.
     */
    double inputBytes() const;
};

/**
 * Iterations of @p loop that actually advance @p op: dimensions with a
 * zero stride revisit the same data (e.g. STAP's weights are reused
 * across training cells), so they do not multiply traffic.
 */
double operandIterations(const OperandRef &op, const LoopSpec &loop);

/**
 * Reuse-aware DRAM traffic of @p call iterated over @p loop: each
 * operand's per-iteration bytes are multiplied only by the loop
 * dimensions that move it. Equals trafficBytes() * iterations when
 * every operand strides through every dimension.
 */
double loopedTrafficBytes(const OpCall &call, const LoopSpec &loop);

/** One operand's reuse-aware traffic contribution. */
struct OperandTraffic
{
    const OperandRef *op; //!< points into the queried OpCall
    double bytes;         //!< total bytes over the whole loop
};

/**
 * The traffic terms of one call: at most one per operand slot (in0-in3,
 * out), held inline so that pricing a call allocates nothing.
 */
class OperandTrafficList
{
  public:
    OperandTrafficList(std::initializer_list<OperandTraffic> terms)
    {
        for (const OperandTraffic &t : terms)
            terms_[size_++] = t;
    }

    std::size_t size() const { return size_; }
    const OperandTraffic *begin() const { return terms_.data(); }
    const OperandTraffic *end() const { return terms_.data() + size_; }
    const OperandTraffic &operator[](std::size_t i) const
    {
        return terms_[i];
    }

  private:
    std::array<OperandTraffic, 5> terms_{};
    std::size_t size_ = 0;
};

/**
 * Per-operand reuse-aware traffic of @p call over @p loop (the terms
 * loopedTrafficBytes() sums). Used by the runtime to price operands
 * that live on a remote memory stack.
 */
OperandTrafficList operandTraffic(const OpCall &call,
                                  const LoopSpec &loop);

} // namespace mealib::accel

#endif // MEALIB_ACCEL_OPS_HH

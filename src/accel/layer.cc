#include "accel/layer.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas2.hh"
#include "minimkl/fft.hh"
#include "minimkl/resample.hh"
#include "minimkl/sparse.hh"
#include "minimkl/transpose.hh"

namespace mealib::accel {

namespace {

/** Elements a strided vector of length n spans. */
std::uint64_t
spanElems(std::uint64_t n, std::int64_t inc)
{
    if (n == 0)
        return 0;
    std::uint64_t mag = static_cast<std::uint64_t>(inc < 0 ? -inc : inc);
    return 1 + (n - 1) * mag;
}

/** Output bytes of one iteration of @p c (for the chaining credit). */
double
outputBytes(const OpCall &c)
{
    const double es = static_cast<double>(c.elemBytes());
    switch (c.kind) {
      case AccelKind::AXPY:
        return static_cast<double>(c.n) * es;
      case AccelKind::DOT:
        return es;
      case AccelKind::GEMV:
        return static_cast<double>(c.m) * es;
      case AccelKind::SPMV:
        return static_cast<double>(c.m) * 4.0;
      case AccelKind::RESMP:
        return static_cast<double>(c.m) * es;
      case AccelKind::FFT:
        return static_cast<double>(c.n) *
               static_cast<double>(std::max<std::uint64_t>(c.k, 1)) * es *
               static_cast<double>(c.m);
      case AccelKind::RESHP:
        return static_cast<double>(c.m) * static_cast<double>(c.n) * es;
      default:
        panic("outputBytes: bad kind");
    }
}

/** Byte range [lo, hi) an operand covers over a whole loop. */
struct Extent
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;

    bool
    overlaps(const Extent &o) const
    {
        return lo < o.hi && o.lo < hi;
    }
};

/**
 * Extent of @p op over @p loop for accesses @p bytes long; nullopt when
 * it does not fit in int64 (the per-iteration route's bounds checks
 * then judge the operand).
 */
std::optional<Extent>
loopExtent(const OperandRef &op, const LoopSpec &loop, std::int64_t bytes)
{
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    if (op.base > static_cast<Addr>(kMax))
        return std::nullopt;
    Extent e{static_cast<std::int64_t>(op.base),
             static_cast<std::int64_t>(op.base)};
    for (unsigned d = 0; d < kMaxLoopDims; ++d) {
        std::int64_t reach = 0;
        if (__builtin_mul_overflow(
                op.stride[d], static_cast<std::int64_t>(loop.dims[d]) - 1,
                &reach))
            return std::nullopt;
        std::int64_t &end = reach < 0 ? e.lo : e.hi;
        if (__builtin_add_overflow(end, reach, &end))
            return std::nullopt;
    }
    if (__builtin_add_overflow(e.hi, bytes, &e.hi))
        return std::nullopt;
    return e;
}

/** Every address of @p op over @p loop is float-aligned. */
bool
floatAligned(const OperandRef &op, const LoopSpec &loop)
{
    if (op.base % alignof(float) != 0)
        return false;
    for (unsigned d = 0; d < kMaxLoopDims; ++d) {
        if (loop.dims[d] > 1 &&
            op.stride[d] % static_cast<std::int64_t>(alignof(float)) != 0)
            return false;
    }
    return true;
}

/**
 * No two iterations of @p loop touch overlapping @p bytes-wide elements
 * of @p op: sorted by stride magnitude, each moving dim steps past
 * everything the smaller ones reach (mixed radix). Call it only on an
 * operand whose loopExtent() fits.
 */
bool
distinctElements(const OperandRef &op, const LoopSpec &loop,
                 std::int64_t bytes)
{
    std::array<std::pair<std::uint64_t, std::uint64_t>, kMaxLoopDims> dims;
    for (unsigned d = 0; d < kMaxLoopDims; ++d) {
        const auto s = static_cast<std::uint64_t>(op.stride[d]);
        dims[d] = {op.stride[d] < 0 ? 0 - s : s, loop.dims[d]};
    }
    std::sort(dims.begin(), dims.end());
    auto reach = static_cast<std::uint64_t>(bytes);
    for (const auto &[mag, extent] : dims) {
        if (extent < 2)
            continue;
        if (mag < reach)
            return false;
        reach += mag * (extent - 1);
    }
    return true;
}

/** What executeDotLoop needs once runsAsDotLoop() holds. */
struct DotLoopPlan
{
    unsigned rowDim = 0; //!< inner dim along which only in0 moves
    unsigned colDim = 0; //!< inner dim along which only in1 moves
    Extent in0, in1, out;
};

std::optional<DotLoopPlan>
planDotLoop(const OpCall &c, const LoopSpec &loop)
{
    if (c.kind != AccelKind::DOT || !c.complexData || !c.conjugate ||
        c.inc0 != 1 || c.inc1 != 1 || c.n == 0 ||
        c.n > static_cast<std::uint64_t>(mkl::kReduceChunk) ||
        loop.iterations() < 2)
        return std::nullopt;
    auto moves = [&](const OperandRef &op, unsigned d) {
        return loop.dims[d] > 1 && op.stride[d] != 0;
    };
    DotLoopPlan plan;
    if (!moves(c.in0, 3) && !moves(c.in1, 2)) {
        plan.rowDim = 2;
        plan.colDim = 3;
    } else if (!moves(c.in0, 2) && !moves(c.in1, 3)) {
        plan.rowDim = 3;
        plan.colDim = 2;
    } else {
        return std::nullopt;
    }
    for (const OperandRef *op : {&c.in0, &c.in1, &c.out}) {
        if (!floatAligned(*op, loop))
            return std::nullopt;
    }
    const auto span = static_cast<std::int64_t>(c.n * c.elemBytes());
    const std::optional<Extent> e0 = loopExtent(c.in0, loop, span);
    const std::optional<Extent> e1 = loopExtent(c.in1, loop, span);
    const std::optional<Extent> eo = loopExtent(c.out, loop, 8);
    if (!e0 || !e1 || !eo || eo->overlaps(*e0) || eo->overlaps(*e1) ||
        !distinctElements(c.out, loop, 8))
        return std::nullopt;
    plan.in0 = *e0;
    plan.in1 = *e1;
    plan.out = *eo;
    return plan;
}

} // namespace

AcceleratorLayer::AcceleratorLayer(const dram::DramParams &dram,
                                   const noc::MeshParams &mesh,
                                   bool functional)
    : dramParams_(dram), functional_(functional)
{
    for (std::size_t k = 0; k < models_.size(); ++k) {
        auto kind = static_cast<AccelKind>(k);
        models_[k] = std::make_unique<AccelModel>(
            kind, defaultConfig(kind), dram, mesh);
    }
}

const AccelModel &
AcceleratorLayer::model(AccelKind kind) const
{
    return *models_[static_cast<std::size_t>(kind)];
}

void
AcceleratorLayer::executeComp(
    const OpCall &c, const std::array<std::uint32_t, kMaxLoopDims> &idx,
    dram::PhysMem &mem) const
{
    using mkl::cfloat;
    const Addr a0 = c.in0.at(idx);
    const Addr a1 = c.in1.at(idx);
    const Addr a2 = c.in2.at(idx);
    const Addr a3 = c.in3.at(idx);
    const Addr ao = c.out.at(idx);
    const auto n = static_cast<std::int64_t>(c.n);
    const auto m = static_cast<std::int64_t>(c.m);

    switch (c.kind) {
      case AccelKind::AXPY:
        if (c.complexData) {
            // Complex scalar packed as (alpha, beta).
            mkl::caxpy(n, {c.alpha, c.beta},
                       mem.ptr<cfloat>(a0, spanElems(c.n, c.inc0)),
                       c.inc0,
                       mem.ptr<cfloat>(ao, spanElems(c.n, c.inc1)),
                       c.inc1);
        } else {
            // Real AXPY is the axpby superset: y := alpha*x + beta*y.
            // cblas_saxpy maps to beta = 1.
            mkl::saxpby(n, c.alpha,
                        mem.ptr<float>(a0, spanElems(c.n, c.inc0)),
                        c.inc0, c.beta,
                        mem.ptr<float>(ao, spanElems(c.n, c.inc1)),
                        c.inc1);
        }
        break;
      case AccelKind::DOT:
        if (c.complexData) {
            const cfloat *x =
                mem.ptr<cfloat>(a0, spanElems(c.n, c.inc0));
            const cfloat *y =
                mem.ptr<cfloat>(a1, spanElems(c.n, c.inc1));
            *mem.ptr<cfloat>(ao, 1) =
                c.conjugate ? mkl::cdotc(n, x, c.inc0, y, c.inc1)
                            : mkl::cdotu(n, x, c.inc0, y, c.inc1);
        } else {
            *mem.ptr<float>(ao, 1) = mkl::sdot(
                n, mem.ptr<float>(a0, spanElems(c.n, c.inc0)), c.inc0,
                mem.ptr<float>(a1, spanElems(c.n, c.inc1)), c.inc1);
        }
        break;
      case AccelKind::GEMV:
        fatalIf(c.complexData, "GEMV accelerator: complex unsupported");
        mkl::sgemv(mkl::Order::RowMajor, mkl::Transpose::NoTrans, m, n,
                   c.alpha, mem.ptr<float>(a0, c.m * c.n),
                   static_cast<std::int64_t>(c.n),
                   mem.ptr<float>(a1, spanElems(c.n, c.inc0)), c.inc0,
                   c.beta, mem.ptr<float>(ao, c.m), 1);
        break;
      case AccelKind::SPMV:
        mkl::scsrmvRaw(m, mem.ptr<std::int64_t>(a0, c.m + 1),
                       mem.ptr<std::int32_t>(a1, c.k),
                       mem.ptr<float>(a2, c.k), mem.ptr<float>(a3, c.n),
                       mem.ptr<float>(ao, c.m));
        break;
      case AccelKind::RESMP: {
        auto kind = static_cast<mkl::InterpKind>(c.resampleKind);
        if (c.complexData) {
            mkl::resample1dc(mem.ptr<cfloat>(a0, c.n), n,
                             mem.ptr<cfloat>(ao, c.m), m, kind);
        } else {
            mkl::resample1d(mem.ptr<float>(a0, c.n), n,
                            mem.ptr<float>(ao, c.m), m, kind);
        }
        break;
      }
      case AccelKind::FFT: {
        fatalIf(!c.complexData, "FFT accelerator: data must be complex");
        auto dir = c.fftDir == -1 ? mkl::FftDirection::Forward
                                  : mkl::FftDirection::Inverse;
        std::uint64_t pts = c.n * std::max<std::uint64_t>(c.k, 1);
        const cfloat *in = mem.ptr<cfloat>(a0, pts * c.m);
        cfloat *out = mem.ptr<cfloat>(ao, pts * c.m);
        if (c.k > 0) {
            auto plan = mkl::FftPlan::dft2d(
                static_cast<std::int64_t>(c.k), n, dir);
            for (std::uint64_t b = 0; b < c.m; ++b)
                plan.execute(in + b * pts, out + b * pts);
        } else {
            mkl::FftPlan::dft1dBatched(n, m, n, dir).execute(in, out);
        }
        break;
      }
      case AccelKind::RESHP:
        if (c.complexData) {
            if (a0 == ao) {
                mkl::cimatcopy(mkl::Order::RowMajor,
                               mkl::Transpose::Trans, m, n,
                               {c.alpha, 0.0f},
                               mem.ptr<cfloat>(ao, c.m * c.n),
                               static_cast<std::int64_t>(c.n),
                               static_cast<std::int64_t>(c.m));
            } else {
                mkl::comatcopy(mkl::Order::RowMajor,
                               mkl::Transpose::Trans, m, n,
                               {c.alpha, 0.0f},
                               mem.ptr<cfloat>(a0, c.m * c.n),
                               static_cast<std::int64_t>(c.n),
                               mem.ptr<cfloat>(ao, c.m * c.n),
                               static_cast<std::int64_t>(c.m));
            }
        } else {
            if (a0 == ao) {
                mkl::simatcopy(mkl::Order::RowMajor,
                               mkl::Transpose::Trans, m, n, c.alpha,
                               mem.ptr<float>(ao, c.m * c.n),
                               static_cast<std::int64_t>(c.n),
                               static_cast<std::int64_t>(c.m));
            } else {
                mkl::somatcopy(mkl::Order::RowMajor,
                               mkl::Transpose::Trans, m, n, c.alpha,
                               mem.ptr<float>(a0, c.m * c.n),
                               static_cast<std::int64_t>(c.n),
                               mem.ptr<float>(ao, c.m * c.n),
                               static_cast<std::int64_t>(c.m));
            }
        }
        break;
      default:
        panic("executeComp: bad kind");
    }
}

bool
AcceleratorLayer::runsAsDotLoop(const OpCall &call, const LoopSpec &loop)
{
    return planDotLoop(call, loop).has_value();
}

bool
AcceleratorLayer::executeDotLoop(const OpCall &c, const LoopSpec &loop,
                                 dram::PhysMem &mem) const
{
    const simd::Kernels *sk = simd::active();
    if (sk == nullptr)
        return false;
    const std::optional<DotLoopPlan> plan = planDotLoop(c, loop);
    if (!plan)
        return false;

    // One bounds check per operand, over its whole extent.
    auto base = [&mem](const Extent &e) {
        return mem.raw(static_cast<Addr>(e.lo),
                       static_cast<std::uint64_t>(e.hi - e.lo));
    };
    const std::uint8_t *in0 = base(plan->in0);
    const std::uint8_t *in1 = base(plan->in1);
    std::uint8_t *out = base(plan->out);

    // The outer dims 0 and 1 times the rows form the work units; each
    // run of rows within one outer iteration is one cdotTile block.
    const unsigned rd = plan->rowDim;
    const unsigned cd = plan->colDim;
    const std::int64_t rows = loop.dims[rd];
    const std::int64_t cols = loop.dims[cd];
    const std::int64_t inner1 = loop.dims[1];
    const std::int64_t units =
        static_cast<std::int64_t>(loop.dims[0]) * inner1 * rows;
    const std::int64_t f = static_cast<std::int64_t>(sizeof(float));
    const std::int64_t ws = c.in0.stride[rd] / f;
    const std::int64_t xs = c.in1.stride[cd] / f;
    const std::int64_t ou = c.out.stride[rd] / f;
    const std::int64_t ov = c.out.stride[cd] / f;
    const auto n = static_cast<std::int64_t>(c.n);
    const int threads = kernelTuning().threadsFor(
        static_cast<std::int64_t>(loop.iterations() * c.n));
    parallelFor(0, units, threads, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t u = b; u < e;) {
            const std::int64_t outer = u / rows;
            const std::int64_t r0 = u % rows;
            const std::int64_t r1 = std::min(rows, r0 + (e - u));
            std::array<std::uint32_t, kMaxLoopDims> idx{};
            idx[0] = static_cast<std::uint32_t>(outer / inner1);
            idx[1] = static_cast<std::uint32_t>(outer % inner1);
            idx[rd] = static_cast<std::uint32_t>(r0);
            sk->cdotTile(
                n, r1 - r0, cols,
                reinterpret_cast<const float *>(
                    in0 + (c.in0.at(idx) - plan->in0.lo)),
                ws,
                reinterpret_cast<const float *>(
                    in1 + (c.in1.at(idx) - plan->in1.lo)),
                xs,
                reinterpret_cast<float *>(
                    out + (c.out.at(idx) - plan->out.lo)),
                ou, ov);
            u += r1 - r0;
        }
    });
    return true;
}

void
AcceleratorLayer::accountComp(const OpCall &call, const LoopSpec &loop,
                              ExecStats &stats) const
{
    AccelEstimate est =
        models_[static_cast<std::size_t>(call.kind)]->estimate(call,
                                                               loop);
    const char *key = name(call.kind);
    stats.timeByAccel.add(key, est.total.seconds);
    stats.energyByAccel.add(key, est.total.joules);
    stats.energyByComponent.add("dram", est.dramEnergyJ);
    stats.energyByComponent.add("logic", est.logicEnergyJ);
    stats.energyByComponent.add("noc", est.nocEnergyJ);
    stats.total += est.total;
    stats.bytesMoved += est.bytes;
    stats.flops += est.flops;
}

void
AcceleratorLayer::creditChaining(const OpCall &producer,
                                 const OpCall &consumer,
                                 const LoopSpec &loop,
                                 ExecStats &stats) const
{
    // The intermediate buffer never round-trips through DRAM: the
    // producer's output streams across the mesh into the consumer's
    // tile. Credit one store plus one load of the intermediate.
    double iters = static_cast<double>(loop.iterations());
    double saved = 2.0 * outputBytes(producer) * iters;

    double bw = dramParams_.peakInternalBandwidth() * 0.8;
    double dt = saved / bw;
    const dram::EnergyParams &e = dramParams_.energy;
    double de = saved * 0.5 * (e.readJPerByte + e.writeJPerByte) +
                saved * e.tsvJPerByte +
                saved / static_cast<double>(dramParams_.org.rowBytes) *
                    e.activateJ;

    // Never credit more than half of what the pair actually spent.
    const char *pk = name(producer.kind);
    const char *ck = name(consumer.kind);
    double pair_t =
        stats.timeByAccel.get(pk) + stats.timeByAccel.get(ck);
    double pair_e =
        stats.energyByAccel.get(pk) + stats.energyByAccel.get(ck);
    dt = std::min(dt, 0.5 * pair_t);
    de = std::min(de, 0.5 * pair_e);

    stats.timeByAccel.add(pk, -dt / 2.0);
    stats.timeByAccel.add(ck, -dt / 2.0);
    stats.energyByAccel.add(pk, -de / 2.0);
    stats.energyByAccel.add(ck, -de / 2.0);
    stats.energyByComponent.add("dram", -de); // the credit is DRAM traffic
    stats.total.seconds -= dt;
    stats.total.joules -= de;
    stats.bytesMoved -= saved;
}

ExecStats
AcceleratorLayer::execute(const DescriptorProgram &prog,
                          dram::PhysMem &mem)
{
    prog.validate();
    ExecStats stats;

    // FetchUnit: pull the descriptor into IMEM and decode it.
    stats.invocation.seconds +=
        costs_.fetchPerInstrS * static_cast<double>(prog.instrs.size());

    LoopSpec active_loop;           // unit loop outside LOOP bodies
    std::uint32_t loop_remaining = 0;
    std::vector<OpCall> pass_comps; // comps of the pass being built
    LoopSpec pass_loop;

    auto flush_pass = [&]() {
        if (pass_comps.empty())
            return;
        stats.passes++;
        // DU: configure every accelerator in the pass, then kick off.
        stats.invocation.seconds +=
            costs_.passStartS +
            costs_.accelInitS * static_cast<double>(pass_comps.size());

        for (const OpCall &c : pass_comps)
            accountComp(c, pass_loop, stats);
        for (std::size_t i = 0; i + 1 < pass_comps.size(); ++i) {
            if (pass_comps[i + 1].in0.base == pass_comps[i].out.base)
                creditChaining(pass_comps[i], pass_comps[i + 1],
                               pass_loop, stats);
        }

        // Functional execution only: pricing above saw the OpCall and
        // LoopSpec alone, whichever route computes the values.
        if (functional_ &&
            !(pass_comps.size() == 1 &&
              executeDotLoop(pass_comps[0], pass_loop, mem))) {
            std::array<std::uint32_t, kMaxLoopDims> idx{0, 0, 0, 0};
            std::uint64_t iters = pass_loop.iterations();
            for (std::uint64_t it = 0; it < iters; ++it) {
                for (const OpCall &c : pass_comps)
                    executeComp(c, idx, mem);
                for (unsigned d = kMaxLoopDims; d-- > 0;) {
                    if (++idx[d] < pass_loop.dims[d])
                        break;
                    idx[d] = 0;
                }
            }
        }
        stats.compsExecuted +=
            pass_comps.size() * pass_loop.iterations();
        pass_comps.clear();
    };

    for (const Instr &in : prog.instrs) {
        switch (in.type) {
          case Instr::Type::Loop:
            fatalIf(!pass_comps.empty(),
                    "descriptor: LOOP inside an open PASS");
            active_loop = in.loop;
            loop_remaining = in.bodyCount;
            continue; // the head itself doesn't consume body slots
          case Instr::Type::Comp:
            if (pass_comps.empty())
                pass_loop = loop_remaining ? active_loop : LoopSpec{};
            pass_comps.push_back(in.call);
            break;
          case Instr::Type::PassEnd:
            flush_pass();
            break;
        }
        if (loop_remaining && --loop_remaining == 0)
            active_loop = LoopSpec{};
    }
    flush_pass(); // tolerate a missing trailing PASS_END after validate()

    stats.invocation.joules =
        costs_.configUnitPowerW * stats.invocation.seconds;
    stats.total += stats.invocation;
    return stats;
}

} // namespace mealib::accel

#include "apps/stap.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hh"
#include "dispatch/models.hh"
#include "dispatch/ops.hh"
#include "hwmodel/profile.hh"
#include "mealib/platform.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas3.hh"
#include "minimkl/fft.hh"
#include "minimkl/transpose.hh"

namespace mealib::apps {

using accel::AccelKind;
using accel::DescriptorProgram;
using accel::LoopSpec;
using accel::OpCall;
using mkl::cfloat;

StapParams
StapParams::smallSet()
{
    StapParams p;
    p.nChan = 12; // smaller array -> smaller space-time vectors
    p.nDop = 64;
    p.nBlocks = 4;
    p.nSteering = 16;
    p.tbs = 16;
    return p; // 64K inner products
}

StapParams
StapParams::mediumSet()
{
    StapParams p;
    p.nChan = 14;
    p.nDop = 128;
    p.nBlocks = 8;
    p.nSteering = 32;
    p.tbs = 32;
    return p; // 1M inner products
}

StapParams
StapParams::largeSet()
{
    StapParams p;
    p.nDop = 256;
    p.nBlocks = 16;
    p.nSteering = 64;
    p.tbs = 64;
    return p; // 16.7M inner products, the paper's scale
}

namespace {

/** Synthetic datacube [chan][pulse][range] with a few injected tones. */
std::vector<cfloat>
generateCube(const StapParams &p)
{
    Rng rng(p.seed);
    std::vector<cfloat> cube(static_cast<std::size_t>(p.nChan) * p.nDop *
                             p.nRange());
    for (auto &v : cube)
        v = {rng.uniform(-0.1f, 0.1f), rng.uniform(-0.1f, 0.1f)};
    // Inject a moving target per channel so the doppler spectrum has
    // structure (keeps covariances well-conditioned too).
    for (unsigned ch = 0; ch < p.nChan; ++ch) {
        for (unsigned pu = 0; pu < p.nDop; ++pu) {
            for (unsigned r = 0; r < p.nRange(); r += 7) {
                double ph = 2.0 * M_PI *
                            (0.1 * pu + 0.01 * r + 0.2 * ch);
                std::size_t i =
                    (static_cast<std::size_t>(ch) * p.nDop + pu) *
                        p.nRange() +
                    r;
                cube[i] += cfloat(0.5f * std::cos(ph),
                                  0.5f * std::sin(ph));
            }
        }
    }
    return cube;
}

/** Steering matrix V: dofLen x nSteering, column sv per direction. */
std::vector<cfloat>
steeringMatrix(const StapParams &p)
{
    const unsigned l = p.dofLen();
    std::vector<cfloat> v(static_cast<std::size_t>(l) * p.nSteering);
    for (unsigned d = 0; d < l; ++d) {
        for (unsigned s = 0; s < p.nSteering; ++s) {
            double ph = 2.0 * M_PI * static_cast<double>(d * (s + 1)) /
                        static_cast<double>(l * p.nSteering);
            v[static_cast<std::size_t>(d) * p.nSteering + s] = {
                static_cast<float>(std::cos(ph)),
                static_cast<float>(std::sin(ph))};
        }
    }
    return v;
}

/**
 * Marshal space-time snapshots from doppler-space data for doppler bins
 * [dopLo, dopHi). doppler layout: [chan][range][dop]; snapshot layout:
 * [dop - dopLo][block][cell][dof] with dof = t * nChan + chan and the
 * t-th temporal tap reading doppler bin (dop + t) mod nDop.
 */
void
buildSnapshots(const StapParams &p, const cfloat *doppler, cfloat *snap,
               unsigned dopLo, unsigned dopHi)
{
    const unsigned l = p.dofLen();
    for (unsigned dop = dopLo; dop < dopHi; ++dop) {
        for (unsigned b = 0; b < p.nBlocks; ++b) {
            for (unsigned c = 0; c < p.tbs; ++c) {
                unsigned range = b * p.tbs + c;
                cfloat *out =
                    snap +
                    (((static_cast<std::size_t>(dop - dopLo) *
                           p.nBlocks +
                       b) *
                          p.tbs +
                      c)) *
                        l;
                for (unsigned t = 0; t < p.tdof; ++t) {
                    unsigned bin = (dop + t) % p.nDop;
                    for (unsigned ch = 0; ch < p.nChan; ++ch) {
                        out[t * p.nChan + ch] =
                            doppler[(static_cast<std::size_t>(ch) *
                                         p.nRange() +
                                     range) *
                                        p.nDop +
                                    bin];
                    }
                }
            }
        }
    }
}

/**
 * Covariance + Cholesky + two triangular solves per (dop, block) for
 * doppler bins [dopLo, dopHi); @p snap and @p weights address the slice
 * (index 0 is bin dopLo). Weights come out as [dop - dopLo][block][sv]
 * [dof] (Listing 1's layout).
 * @return the number of library calls issued (cherk + 2 ctrsm each).
 */
std::uint64_t
computeWeights(const StapParams &p, const cfloat *snap, cfloat *weights,
               unsigned dopLo, unsigned dopHi)
{
    const unsigned l = p.dofLen();
    const std::vector<cfloat> v = steeringMatrix(p);
    std::vector<cfloat> r(static_cast<std::size_t>(l) * l);
    std::vector<cfloat> y(static_cast<std::size_t>(l) * p.nSteering);
    std::uint64_t calls = 0;

    for (unsigned dop = dopLo; dop < dopHi; ++dop) {
        for (unsigned b = 0; b < p.nBlocks; ++b) {
            const cfloat *a =
                snap + ((static_cast<std::size_t>(dop - dopLo) *
                             p.nBlocks +
                         b) *
                        p.tbs) *
                           l;
            // R = A^H A over the training block (A is tbs x l).
            std::fill(r.begin(), r.end(), cfloat{});
            dispatch::ops::cherk(mkl::Order::RowMajor, mkl::Uplo::Lower,
                                 mkl::Transpose::ConjTrans, l, p.tbs,
                                 1.0f, a, l, 0.0f, r.data(), l);
            calls++;
            // Diagonal loading keeps the factorization well posed.
            for (unsigned d = 0; d < l; ++d)
                r[static_cast<std::size_t>(d) * l + d] +=
                    cfloat{0.1f * static_cast<float>(p.tbs), 0.0f};
            mkl::cpotrf(l, r.data(), l);

            // Solve R w = v via L y = v, then L^H w = y.
            std::copy(v.begin(), v.end(), y.begin());
            dispatch::ops::ctrsm(mkl::Order::RowMajor, mkl::Side::Left,
                                 mkl::Uplo::Lower, mkl::Transpose::NoTrans,
                                 mkl::Diag::NonUnit, l, p.nSteering,
                                 {1.0f, 0.0f}, r.data(), l, y.data(),
                                 p.nSteering);
            dispatch::ops::ctrsm(mkl::Order::RowMajor, mkl::Side::Left,
                                 mkl::Uplo::Lower,
                                 mkl::Transpose::ConjTrans,
                                 mkl::Diag::NonUnit, l, p.nSteering,
                                 {1.0f, 0.0f}, r.data(), l, y.data(),
                                 p.nSteering);
            calls += 2;

            // Repack column sv of y into the [sv][dof] weight layout.
            cfloat *w =
                weights +
                (static_cast<std::size_t>(dop - dopLo) * p.nBlocks +
                 b) *
                    p.nSteering * l;
            for (unsigned s = 0; s < p.nSteering; ++s)
                for (unsigned d = 0; d < l; ++d)
                    w[static_cast<std::size_t>(s) * l + d] =
                        y[static_cast<std::size_t>(d) * p.nSteering + s];
        }
    }
    return calls;
}

/** Host cost of the compute-bounded stages (cherk/ctrsm/Cholesky). */
host::KernelProfile
weightStageProfile(const StapParams &p)
{
    const double l = p.dofLen();
    const double count = static_cast<double>(p.nDop) * p.nBlocks;
    host::KernelProfile prof;
    prof.name = "cherk+ctrsm";
    // cherk: 4*l*(l+1)*k real flops; two trsm: 4*l^2*nSteering each;
    // Cholesky: (4/3)*l^3.
    prof.flops = count * (4.0 * l * (l + 1.0) * p.tbs +
                          8.0 * l * l * p.nSteering +
                          4.0 / 3.0 * l * l * l);
    prof.bytesRead = count * (p.tbs * l * 8.0 + l * l * 8.0);
    prof.bytesWritten = count * (l * p.nSteering * 8.0);
    // Small matrices (l = 12) leave vector lanes idle.
    prof.simdEff = 0.30;
    prof.memEff = 0.7;
    prof.parallelFraction = 0.95;
    return prof;
}

/** Host cost of snapshot marshalling + weight repacking (streaming). */
host::KernelProfile
marshalProfile(const StapParams &p)
{
    const double snap_bytes = static_cast<double>(p.dotCalls() /
                                                  p.nSteering) *
                              p.dofLen() * 8.0;
    const double w_bytes = static_cast<double>(p.nDop) * p.nBlocks *
                           p.nSteering * p.dofLen() * 8.0;
    host::KernelProfile prof;
    prof.name = "marshal";
    prof.bytesRead = snap_bytes + w_bytes;
    prof.bytesWritten = snap_bytes + w_bytes;
    prof.memEff = 0.4; // gather-style addressing
    prof.simdEff = 0.5;
    prof.flops = 1.0;
    return prof;
}

/** @p prof with its work scaled to a doppler-slice fraction @p f. */
host::KernelProfile
scaled(host::KernelProfile prof, double f)
{
    prof.flops *= f;
    prof.bytesRead *= f;
    prof.bytesWritten *= f;
    prof.callOverheads *= f;
    return prof;
}

/** OpCall templates shared by both execution modes. */
struct StapCalls
{
    OpCall reshape; //!< per-channel corner turn     (RESHP, LOOP nChan)
    LoopSpec reshapeLoop;
    OpCall fft;     //!< per-channel doppler FFT     (FFT, chained)
    OpCall dot;     //!< the 4-deep inner-product nest (DOT, LOOP 4D)
    LoopSpec dotLoop;
    OpCall axpy;    //!< final scaling                (AXPY)
};

StapCalls
buildCalls(const StapParams &p, Addr cube, Addr mid, Addr doppler,
           Addr weights, Addr snap, Addr prods, Addr out)
{
    const unsigned l = p.dofLen();
    const std::int64_t chan_bytes =
        static_cast<std::int64_t>(p.nDop) * p.nRange() * 8;
    StapCalls c;

    // Corner turn: per channel, transpose [pulse][range] ->
    // [range][pulse] (the fftwf rank-0 guru copy of Listing 1).
    c.reshape.kind = AccelKind::RESHP;
    c.reshape.m = p.nDop;
    c.reshape.n = p.nRange();
    c.reshape.complexData = true;
    c.reshape.in0 = {cube, {chan_bytes, 0, 0, 0}};
    c.reshape.out = {mid, {chan_bytes, 0, 0, 0}};
    c.reshapeLoop.dims = {p.nChan, 1, 1, 1};

    // Doppler FFT: nRange transforms of length nDop per channel,
    // chained onto the corner turn's output.
    c.fft.kind = AccelKind::FFT;
    c.fft.n = p.nDop;
    c.fft.m = p.nRange();
    c.fft.complexData = true;
    c.fft.fftDir = -1;
    c.fft.in0 = {mid, {chan_bytes, 0, 0, 0}};
    c.fft.out = {doppler, {chan_bytes, 0, 0, 0}};

    // Inner products: loop dims (dop, block, sv, cell).
    const std::int64_t lb = static_cast<std::int64_t>(l) * 8;
    const std::int64_t w_sv = lb;
    const std::int64_t w_block =
        static_cast<std::int64_t>(p.nSteering) * w_sv;
    const std::int64_t w_dop =
        static_cast<std::int64_t>(p.nBlocks) * w_block;
    const std::int64_t s_cell = lb;
    const std::int64_t s_block =
        static_cast<std::int64_t>(p.tbs) * s_cell;
    const std::int64_t s_dop =
        static_cast<std::int64_t>(p.nBlocks) * s_block;
    const std::int64_t o_cell = 8;
    const std::int64_t o_sv = static_cast<std::int64_t>(p.tbs) * o_cell;
    const std::int64_t o_block =
        static_cast<std::int64_t>(p.nSteering) * o_sv;
    const std::int64_t o_dop =
        static_cast<std::int64_t>(p.nBlocks) * o_block;

    c.dot.kind = AccelKind::DOT;
    c.dot.n = l;
    c.dot.complexData = true;
    c.dot.conjugate = true;
    c.dot.in0 = {weights, {w_dop, w_block, w_sv, 0}};
    c.dot.in1 = {snap, {s_dop, s_block, 0, s_cell}};
    c.dot.out = {prods, {o_dop, o_block, o_sv, o_cell}};
    c.dotLoop.dims = {p.nDop, p.nBlocks, p.nSteering, p.tbs};

    // Output scaling: out += alpha * prods over the flattened cube.
    c.axpy.kind = AccelKind::AXPY;
    c.axpy.n = p.dotCalls();
    c.axpy.complexData = true;
    c.axpy.alpha = 1.0f / static_cast<float>(p.tbs);
    c.axpy.beta = 0.0f;
    c.axpy.in0 = {prods, {0, 0, 0, 0}};
    c.axpy.out = {out, {0, 0, 0, 0}};

    return c;
}

} // namespace

StapResult
runStapHost(const StapParams &p)
{
    StapResult res;
    const hwmodel::MachineProfile &machine = hwmodel::activeProfile();
    host::CpuModel cpu(machine.cpu);
    const unsigned l = p.dofLen();

    // --- functional pipeline through MiniMKL (the legacy code path) ---
    std::vector<cfloat> cube = generateCube(p);
    std::vector<cfloat> mid(cube.size());
    std::vector<cfloat> doppler(cube.size());
    for (unsigned ch = 0; ch < p.nChan; ++ch) {
        dispatch::ops::comatcopy(
                       mkl::Order::RowMajor, mkl::Transpose::Trans,
                       p.nDop, p.nRange(), {1.0f, 0.0f},
                       cube.data() +
                           static_cast<std::size_t>(ch) * p.nDop *
                               p.nRange(),
                       p.nRange(),
                       mid.data() + static_cast<std::size_t>(ch) *
                                        p.nDop * p.nRange(),
                       p.nDop);
    }
    mkl::FftPlan::dft1dBatched(p.nDop,
                               static_cast<std::int64_t>(p.nChan) *
                                   p.nRange(),
                               p.nDop, mkl::FftDirection::Forward)
        .execute(mid.data(), doppler.data());

    std::vector<cfloat> snap(p.dotCalls() / p.nSteering * l);
    buildSnapshots(p, doppler.data(), snap.data(), 0, p.nDop);
    std::vector<cfloat> weights(static_cast<std::size_t>(p.nDop) *
                                p.nBlocks * p.nSteering * l);
    std::uint64_t blas3_calls =
        computeWeights(p, snap.data(), weights.data(), 0, p.nDop);

    std::vector<cfloat> prods(p.dotCalls());
    for (unsigned dop = 0; dop < p.nDop; ++dop)
        for (unsigned b = 0; b < p.nBlocks; ++b)
            for (unsigned s = 0; s < p.nSteering; ++s)
                for (unsigned c = 0; c < p.tbs; ++c) {
                    const cfloat *w =
                        weights.data() +
                        ((static_cast<std::size_t>(dop) * p.nBlocks +
                          b) *
                             p.nSteering +
                         s) *
                            l;
                    const cfloat *x =
                        snap.data() +
                        ((static_cast<std::size_t>(dop) * p.nBlocks +
                          b) *
                             p.tbs +
                         c) *
                            l;
                    prods[((static_cast<std::size_t>(dop) * p.nBlocks +
                            b) *
                               p.nSteering +
                           s) *
                              p.tbs +
                          c] = dispatch::ops::cdotc(l, w, 1, x, 1);
                }

    res.prods.assign(prods.size(), cfloat{});
    dispatch::ops::caxpy(static_cast<std::int64_t>(prods.size()),
                         {1.0f / static_cast<float>(p.tbs), 0.0f},
                         prods.data(), 1, res.prods.data(), 1);

    // --- cost model: every stage runs on the host --------------------
    StapCalls calls = buildCalls(p, 0, 0, 0, 0, 0, 0, 0);

    auto charge = [&](const host::KernelProfile &prof,
                      const char *label) {
        Cost c = cpu.run(prof);
        res.ledger.post("host", c, label);
        res.ledger.attribute("host", c.joules);
        res.ledger.addFlops(prof.flops);
    };
    auto host_stage = [&](const OpCall &call, const LoopSpec &loop,
                          double per_call_overhead, const char *label) {
        // Priced against the active machine profile; identical to the
        // pre-registry eval::hostProfile(HaswellMkl) on the default.
        host::KernelProfile prof =
            dispatch::hostKernelProfile(machine, call, loop);
        prof.callOverheads +=
            per_call_overhead * static_cast<double>(loop.iterations());
        charge(prof, label);
    };
    host_stage(calls.reshape, calls.reshapeLoop, 0.0, "reshape");
    host_stage(calls.fft, calls.reshapeLoop, 0.0, "fft"); // one per chan
    // 16M separate cdotc_sub library calls each pay dispatch cost.
    host_stage(calls.dot, calls.dotLoop, 40e-9, "dot");
    host_stage(calls.axpy, {}, 0.0, "axpy");
    charge(weightStageProfile(p), "cherk+ctrsm");
    charge(marshalProfile(p), "marshal");

    res.libraryCalls = 2 + 2 + blas3_calls + p.dotCalls() + 1;
    res.descriptors = 0;
    return res;
}

StapResult
runStapMealib(const StapParams &p, runtime::MealibRuntime &rt,
              bool exclusive)
{
    StapResult res;
    const unsigned l = p.dofLen();
    const std::size_t cube_elems =
        static_cast<std::size_t>(p.nChan) * p.nDop * p.nRange();

    if (exclusive)
        rt.resetAccounting();

    // Data allocation through the memory-management runtime (the s2s
    // compiler rewrote malloc into mealib_mem_alloc).
    auto *cube = static_cast<cfloat *>(rt.memAlloc(cube_elems * 8));
    auto *mid = static_cast<cfloat *>(rt.memAlloc(cube_elems * 8));
    auto *doppler = static_cast<cfloat *>(rt.memAlloc(cube_elems * 8));
    auto *snap = static_cast<cfloat *>(
        rt.memAlloc(p.dotCalls() / p.nSteering * l * 8));
    auto *weights = static_cast<cfloat *>(
        rt.memAlloc(static_cast<std::size_t>(p.nDop) * p.nBlocks *
                    p.nSteering * l * 8));
    auto *prods = static_cast<cfloat *>(rt.memAlloc(p.dotCalls() * 8));
    auto *out = static_cast<cfloat *>(rt.memAlloc(p.dotCalls() * 8));

    std::vector<cfloat> cube_data = generateCube(p);
    std::copy(cube_data.begin(), cube_data.end(), cube);
    std::fill(out, out + p.dotCalls(), cfloat{});
    rt.noteHostWrite(cube, cube_elems * 8);
    rt.noteHostWrite(out, p.dotCalls() * 8);

    StapCalls calls = buildCalls(
        p, rt.physOf(cube), rt.physOf(mid), rt.physOf(doppler),
        rt.physOf(weights), rt.physOf(snap), rt.physOf(prods),
        rt.physOf(out));

    // Descriptor 1: per-channel corner turn chained into the doppler
    // FFT (the two fftwf_plan_guru_dft pairs of Listing 1).
    DescriptorProgram d1;
    d1.addLoop(calls.reshapeLoop, 3);
    d1.addComp(calls.reshape);
    OpCall fft = calls.fft;
    d1.addComp(fft);
    d1.addPassEnd();
    auto h1 = rt.accPlan(d1);
    rt.accExecute(h1);
    rt.accDestroy(h1);

    // Host stages: snapshots, covariance, solves, weight repacking.
    buildSnapshots(p, doppler, snap, 0, p.nDop);
    std::uint64_t blas3_calls =
        computeWeights(p, snap, weights, 0, p.nDop);
    rt.noteHostWrite(snap, p.dotCalls() / p.nSteering * l * 8);
    rt.noteHostWrite(weights, static_cast<std::size_t>(p.nDop) *
                                  p.nBlocks * p.nSteering * l * 8);
    host::CpuModel cpu(hwmodel::activeProfile().cpu);
    rt.runOnHost(weightStageProfile(p));
    rt.runOnHost(marshalProfile(p));

    // Descriptor 2: the 16M cdotc_sub calls as ONE 4-D LOOP descriptor.
    DescriptorProgram d2;
    d2.addLoop(calls.dotLoop, 2);
    d2.addComp(calls.dot);
    d2.addPassEnd();
    auto h2 = rt.accPlan(d2);
    rt.accExecute(h2);
    rt.accDestroy(h2);

    // Descriptor 3: the output-scaling saxpy.
    DescriptorProgram d3;
    d3.addComp(calls.axpy);
    d3.addPassEnd();
    auto h3 = rt.accPlan(d3);
    rt.accExecute(h3);
    rt.accDestroy(h3);

    res.prods.assign(out, out + p.dotCalls());

    if (exclusive) {
        const runtime::RuntimeAccounting &acct = rt.accounting();
        res.timeByAccel = acct.timeByAccel;
        res.energyByAccel = acct.energyByAccel;
        res.criticalPathSeconds = acct.makespanSeconds;
        // The host idles (but still burns package power) while the
        // accelerators own the DRAM.
        res.ledger = rt.ledger();
        Cost idle =
            cpu.idleCost(res.accel().seconds + res.invocation().seconds);
        res.ledger.post("host", {0.0, idle.joules}, "package_idle");
        res.ledger.attribute("host", idle.joules);
    }

    res.libraryCalls = 2 + 2 + blas3_calls + p.dotCalls() + 1;
    res.descriptors = 3;

    for (void *ptr : {static_cast<void *>(cube), static_cast<void *>(mid),
                      static_cast<void *>(doppler),
                      static_cast<void *>(snap),
                      static_cast<void *>(weights),
                      static_cast<void *>(prods),
                      static_cast<void *>(out)})
        rt.memFree(ptr);
    return res;
}

StapResult
runStapMealibAsync(const StapParams &p, runtime::MealibRuntime &rt,
                   bool exclusive)
{
    StapResult res;
    const unsigned l = p.dofLen();
    const std::size_t cube_elems =
        static_cast<std::size_t>(p.nChan) * p.nDop * p.nRange();
    // One doppler slice per stack; every slice's working set lives on
    // its own Local Memory Stack so the submitted descriptors pay no
    // remote-link penalty.
    const unsigned slices = std::min(rt.numStacks(), p.nDop);

    if (exclusive)
        rt.resetAccounting();

    // The datacube and its doppler spectrum stay on stack 0: the corner
    // turn + FFT descriptor is a pipeline head every slice depends on.
    auto *cube = static_cast<cfloat *>(rt.memAlloc(cube_elems * 8));
    auto *mid = static_cast<cfloat *>(rt.memAlloc(cube_elems * 8));
    auto *doppler = static_cast<cfloat *>(rt.memAlloc(cube_elems * 8));

    std::vector<cfloat> cube_data = generateCube(p);
    std::copy(cube_data.begin(), cube_data.end(), cube);
    rt.noteHostWrite(cube, cube_elems * 8);

    StapCalls calls = buildCalls(p, rt.physOf(cube), rt.physOf(mid),
                                 rt.physOf(doppler), 0, 0, 0, 0);

    // Descriptor 1: corner turn chained into the doppler FFT.
    DescriptorProgram d1;
    d1.addLoop(calls.reshapeLoop, 3);
    d1.addComp(calls.reshape);
    d1.addComp(calls.fft);
    d1.addPassEnd();
    auto h1 = rt.accPlan(d1);
    rt.accExecute(h1); // blocking: the host marshals from `doppler`
    rt.accDestroy(h1);

    // Slice boundaries: near-equal contiguous doppler ranges.
    std::vector<unsigned> lo(slices + 1, 0);
    for (unsigned s = 0; s < slices; ++s)
        lo[s + 1] = lo[s] + p.nDop / slices +
                    (s < p.nDop % slices ? 1 : 0);

    struct Slice
    {
        cfloat *snap, *weights, *prods, *out;
        runtime::AccPlanHandle plan;
    };
    std::vector<Slice> sl(slices);
    std::uint64_t blas3_calls = 0;

    for (unsigned s = 0; s < slices; ++s) {
        const unsigned dops = lo[s + 1] - lo[s];
        const std::size_t rows =
            static_cast<std::size_t>(dops) * p.nBlocks;
        const std::size_t dot_calls = rows * p.nSteering * p.tbs;
        sl[s].snap = static_cast<cfloat *>(
            rt.memAllocOn(s, rows * p.tbs * l * 8));
        sl[s].weights = static_cast<cfloat *>(
            rt.memAllocOn(s, rows * p.nSteering * l * 8));
        sl[s].prods =
            static_cast<cfloat *>(rt.memAllocOn(s, dot_calls * 8));
        sl[s].out =
            static_cast<cfloat *>(rt.memAllocOn(s, dot_calls * 8));

        // Host: marshal + adaptive weights for THIS slice; slices
        // already submitted keep executing near memory meanwhile.
        buildSnapshots(p, doppler, sl[s].snap, lo[s], lo[s + 1]);
        blas3_calls += computeWeights(p, sl[s].snap, sl[s].weights,
                                      lo[s], lo[s + 1]);
        std::fill(sl[s].out, sl[s].out + dot_calls, cfloat{});
        rt.noteHostWrite(sl[s].snap, rows * p.tbs * l * 8);
        rt.noteHostWrite(sl[s].weights, rows * p.nSteering * l * 8);
        rt.noteHostWrite(sl[s].out, dot_calls * 8);
        const double frac =
            static_cast<double>(dops) / static_cast<double>(p.nDop);
        rt.runOnHost(scaled(weightStageProfile(p), frac));
        rt.runOnHost(scaled(marshalProfile(p), frac));

        // This slice's inner products + scaling as one descriptor,
        // submitted to the slice's home stack.
        StapCalls sc = buildCalls(
            p, 0, 0, 0, rt.physOf(sl[s].weights), rt.physOf(sl[s].snap),
            rt.physOf(sl[s].prods), rt.physOf(sl[s].out));
        sc.dotLoop.dims = {dops, p.nBlocks, p.nSteering, p.tbs};
        sc.axpy.n = dot_calls;
        DescriptorProgram d;
        d.addLoop(sc.dotLoop, 2);
        d.addComp(sc.dot);
        d.addPassEnd();
        d.addComp(sc.axpy);
        d.addPassEnd();
        sl[s].plan = rt.accPlan(d);
        rt.accSubmitOn(sl[s].plan, s);
    }
    rt.waitAll();

    res.prods.resize(p.dotCalls());
    for (unsigned s = 0; s < slices; ++s) {
        const std::size_t off = static_cast<std::size_t>(lo[s]) *
                                p.nBlocks * p.nSteering * p.tbs;
        const std::size_t count =
            static_cast<std::size_t>(lo[s + 1] - lo[s]) * p.nBlocks *
            p.nSteering * p.tbs;
        std::copy(sl[s].out, sl[s].out + count,
                  res.prods.begin() + static_cast<std::ptrdiff_t>(off));
        rt.accDestroy(sl[s].plan);
    }

    if (exclusive) {
        const runtime::RuntimeAccounting &acct = rt.accounting();
        res.timeByAccel = acct.timeByAccel;
        res.energyByAccel = acct.energyByAccel;
        res.criticalPathSeconds = acct.makespanSeconds;
        // The host burns package power only where the overlap-aware
        // timeline leaves it idle.
        host::CpuModel cpu(hwmodel::activeProfile().cpu);
        const double idle_s =
            std::max(0.0, acct.makespanSeconds - acct.hostBusySeconds);
        const double idle_j = cpu.idleCost(idle_s).joules;
        res.ledger = rt.ledger();
        res.ledger.post("host", {0.0, idle_j}, "package_idle");
        res.ledger.attribute("host", idle_j);
    }

    res.libraryCalls = 2 + 2 + blas3_calls + p.dotCalls() + 1;
    res.descriptors = 1 + slices;

    for (unsigned s = 0; s < slices; ++s)
        for (void *ptr : {static_cast<void *>(sl[s].snap),
                          static_cast<void *>(sl[s].weights),
                          static_cast<void *>(sl[s].prods),
                          static_cast<void *>(sl[s].out)})
            rt.memFree(ptr);
    for (void *ptr : {static_cast<void *>(cube),
                      static_cast<void *>(mid),
                      static_cast<void *>(doppler)})
        rt.memFree(ptr);
    return res;
}

} // namespace mealib::apps

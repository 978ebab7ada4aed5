#include "apps/cg.hh"

#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "dispatch/ops.hh"
#include "minimkl/blas1.hh"

namespace mealib::apps {

using accel::AccelKind;
using accel::DescriptorProgram;
using accel::OpCall;

mkl::CsrMatrix
cgTestMatrix(std::int64_t n, std::uint64_t seed)
{
    // Graph Laplacian of a random geometric graph plus diagonal
    // loading: symmetric positive definite by construction.
    Rng rng(seed);
    mkl::CsrMatrix g = mkl::randomGeometricGraph(n, 6.0, rng);
    std::vector<mkl::Triplet> trip;
    std::vector<float> degree(static_cast<std::size_t>(n), 0.0f);
    for (std::int64_t r = 0; r < g.rows; ++r) {
        for (std::int64_t k = g.rowPtr[r]; k < g.rowPtr[r + 1]; ++k) {
            trip.push_back({r, g.colIdx[k],
                            -g.vals[static_cast<std::size_t>(k)]});
            degree[static_cast<std::size_t>(r)] +=
                g.vals[static_cast<std::size_t>(k)];
        }
    }
    for (std::int64_t r = 0; r < n; ++r)
        trip.push_back({r, r, degree[static_cast<std::size_t>(r)] + 1.0f});
    return mkl::csrFromTriplets(n, n, std::move(trip));
}

CgResult
solveCgHost(const mkl::CsrMatrix &a, const std::vector<float> &b,
            const CgOptions &opts)
{
    a.validate();
    fatalIf(a.rows != a.cols, "cg: matrix must be square");
    fatalIf(static_cast<std::int64_t>(b.size()) != a.rows,
            "cg: rhs size mismatch");
    const std::int64_t n = a.rows;

    CgResult res;
    res.x.assign(b.size(), 0.0f);
    std::vector<float> r = b; // r = b - A*0
    std::vector<float> p = r;
    std::vector<float> ap(b.size());

    double bnorm = std::sqrt(static_cast<double>(
        dispatch::ops::sdot(n, b.data(), 1, b.data(), 1)));
    if (bnorm == 0.0) {
        res.converged = true;
        return res;
    }
    double rs = dispatch::ops::sdot(n, r.data(), 1, r.data(), 1);

    for (unsigned it = 0; it < opts.maxIterations; ++it) {
        dispatch::ops::scsrmv(a, p.data(), ap.data());
        double pap = dispatch::ops::sdot(n, p.data(), 1, ap.data(), 1);
        fatalIf(pap <= 0.0, "cg: matrix is not positive definite");
        float alpha = static_cast<float>(rs / pap);
        dispatch::ops::saxpy(n, alpha, p.data(), 1, res.x.data(), 1);
        dispatch::ops::saxpy(n, -alpha, ap.data(), 1, r.data(), 1);
        double rs_new = dispatch::ops::sdot(n, r.data(), 1, r.data(), 1);
        res.iterations = it + 1;
        if (std::sqrt(rs_new) <= opts.tolerance * bnorm) {
            res.converged = true;
            rs = rs_new;
            break;
        }
        float beta = static_cast<float>(rs_new / rs);
        // p := r + beta * p
        dispatch::ops::saxpby(n, 1.0f, r.data(), 1, beta, p.data(), 1);
        rs = rs_new;
    }
    res.residualNorm = std::sqrt(rs);
    return res;
}

namespace {

/** Bundle of reusable plans + arena buffers for the accelerated CG. */
struct CgPlans
{
    float *x, *r, *p, *ap, *dots; // dots[0] = p.Ap, dots[1] = r.r
};

OpCall
dotCall(runtime::MealibRuntime &rt, const float *a, const float *b,
        float *out, std::int64_t n)
{
    OpCall c;
    c.kind = AccelKind::DOT;
    c.n = static_cast<std::uint64_t>(n);
    c.in0.base = rt.physOf(a);
    c.in1.base = rt.physOf(b);
    c.out.base = rt.physOf(out);
    return c;
}

} // namespace

CgResult
solveCgMealib(const mkl::CsrMatrix &a, const std::vector<float> &b,
              runtime::MealibRuntime &rt, const CgOptions &opts)
{
    a.validate();
    fatalIf(a.rows != a.cols, "cg: matrix must be square");
    fatalIf(static_cast<std::int64_t>(b.size()) != a.rows,
            "cg: rhs size mismatch");
    const std::int64_t n = a.rows;
    const std::int64_t nnz = a.nnz();
    if (opts.exclusive)
        rt.resetAccounting();

    CgResult res;

    // Arena-resident state (mealib_mem_alloc semantics).
    auto *rowptr =
        static_cast<std::int64_t *>(rt.memAlloc((n + 1) * 8));
    auto *colidx = static_cast<std::int32_t *>(rt.memAlloc(nnz * 4));
    auto *vals = static_cast<float *>(rt.memAlloc(nnz * 4));
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *r = static_cast<float *>(rt.memAlloc(n * 4));
    auto *p = static_cast<float *>(rt.memAlloc(n * 4));
    auto *ap = static_cast<float *>(rt.memAlloc(n * 4));
    auto *dots = static_cast<float *>(rt.memAlloc(2 * 4));
    std::copy(a.rowPtr.begin(), a.rowPtr.end(), rowptr);
    std::copy(a.colIdx.begin(), a.colIdx.end(), colidx);
    std::copy(a.vals.begin(), a.vals.end(), vals);
    std::memset(x, 0, static_cast<std::size_t>(n) * 4);
    std::copy(b.begin(), b.end(), r);
    std::copy(b.begin(), b.end(), p);

    // Fixed-configuration plans, built ONCE and re-executed every
    // iteration (the Listing-2 reuse pattern).
    DescriptorProgram spmv_prog;
    {
        OpCall c;
        c.kind = AccelKind::SPMV;
        c.m = static_cast<std::uint64_t>(n);
        c.n = static_cast<std::uint64_t>(n);
        c.k = static_cast<std::uint64_t>(nnz);
        c.in0.base = rt.physOf(rowptr);
        c.in1.base = rt.physOf(colidx);
        c.in2.base = rt.physOf(vals);
        c.in3.base = rt.physOf(p);
        c.out.base = rt.physOf(ap);
        spmv_prog.addComp(c);
        spmv_prog.addPassEnd();
    }
    DescriptorProgram dots_prog; // both reductions in one descriptor
    dots_prog.addComp(dotCall(rt, p, ap, &dots[0], n));
    dots_prog.addPassEnd();
    dots_prog.addComp(dotCall(rt, r, r, &dots[1], n));
    dots_prog.addPassEnd();

    auto h_spmv = rt.accPlan(spmv_prog);
    auto h_dots = rt.accPlan(dots_prog);
    res.descriptors = 2;

    auto plan_axpby = [&](float alpha, const float *xin, float beta,
                          float *yout) {
        // alpha/beta change per iteration, so these plans are rebuilt —
        // the price of baking scalars into the Parameter Region.
        OpCall c;
        c.kind = AccelKind::AXPY;
        c.n = static_cast<std::uint64_t>(n);
        c.alpha = alpha;
        c.beta = beta;
        c.in0.base = rt.physOf(xin);
        c.out.base = rt.physOf(yout);
        DescriptorProgram prog;
        prog.addComp(c);
        prog.addPassEnd();
        res.descriptors++;
        res.executes++;
        return rt.accPlan(prog);
    };
    auto run_axpby = [&](float alpha, const float *xin, float beta,
                         float *yout) {
        auto h = plan_axpby(alpha, xin, beta, yout);
        rt.accExecute(h);
        rt.accDestroy(h);
    };

    double bnorm = std::sqrt(static_cast<double>(
        mkl::sdot(n, b.data(), 1, b.data(), 1)));
    if (bnorm == 0.0) {
        res.converged = true;
        res.x.assign(b.size(), 0.0f);
    }
    double rs = mkl::sdot(n, r, 1, r, 1);

    for (unsigned it = 0; !res.converged && it < opts.maxIterations;
         ++it) {
        rt.accExecute(h_spmv); // ap := A p
        rt.accExecute(h_dots); // dots = { p.ap, r.r }
        res.executes += 2;
        double pap = dots[0];
        fatalIf(pap <= 0.0, "cg: matrix is not positive definite");
        float alpha = static_cast<float>(rs / pap);
        // x += alpha p and r -= alpha ap touch disjoint vectors: submit
        // both and let the hazard tracker prove they may overlap.
        auto h_x = plan_axpby(alpha, p, 1.0f, x);
        auto h_r = plan_axpby(-alpha, ap, 1.0f, r);
        rt.accSubmit(h_x);
        rt.accSubmit(h_r);
        rt.waitAll();
        rt.accDestroy(h_x);
        rt.accDestroy(h_r);
        rt.accExecute(h_dots);          // refresh r.r after the update
        res.executes++;
        double rs_new = dots[1];
        res.iterations = it + 1;
        if (std::sqrt(rs_new) <= opts.tolerance * bnorm) {
            res.converged = true;
            rs = rs_new;
            break;
        }
        float beta = static_cast<float>(rs_new / rs);
        run_axpby(1.0f, r, beta, p); // p := r + beta p
        rs = rs_new;
    }

    rt.accDestroy(h_spmv);
    rt.accDestroy(h_dots);
    res.residualNorm = std::sqrt(rs);
    res.x.assign(x, x + n);
    if (opts.exclusive) {
        res.accel = rt.accounting().accel();
        res.invocation = rt.accounting().invocation();
    }

    for (void *ptr :
         {static_cast<void *>(rowptr), static_cast<void *>(colidx),
          static_cast<void *>(vals), static_cast<void *>(x),
          static_cast<void *>(r), static_cast<void *>(p),
          static_cast<void *>(ap), static_cast<void *>(dots)})
        rt.memFree(ptr);
    return res;
}

} // namespace mealib::apps

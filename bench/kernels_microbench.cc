/**
 * @file
 * Microbenchmarks of the MiniMKL functional kernels: optimized variants
 * against their naive oracles across sizes and thread counts, with
 * warmup + min-of-N timing (see bench_util.hh) so the numbers are
 * stable enough to gate on.
 *
 * Not a paper figure — library-release hygiene. `--json <path>` writes
 * BENCH_kernels.json-style output (per-kernel GB/s and speedups) that
 * CI uploads as the perf trajectory artifact; later PRs regress against
 * it. `--quick` shrinks sizes for a smoke run; `--help` lists the rest.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "hwmodel/profile.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas2.hh"
#include "minimkl/blas3.hh"
#include "minimkl/compat.hh"
#include "minimkl/fft.hh"
#include "minimkl/naive.hh"
#include "minimkl/sparse.hh"
#include "minimkl/transpose.hh"

namespace {

using namespace mealib;

std::vector<float>
randomVec(std::int64_t n, std::uint64_t seed = 1)
{
    Rng rng(seed);
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = rng.uniform(-1.0f, 1.0f);
    return v;
}

std::vector<mkl::cfloat>
randomCVec(std::int64_t n, std::uint64_t seed = 2)
{
    Rng rng(seed);
    std::vector<mkl::cfloat> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    return v;
}

struct Options
{
    std::string jsonPath;
    bool quick = false;
    std::vector<int> threads;
    std::vector<simd::SimdLevel> simdLevels;
    bench::TimingConfig timing;
};

/**
 * SIMD levels to sweep by default: the pinned scalar baseline plus the
 * best level this machine supports (collapsed to scalar-only when no
 * vector backend is available).
 */
std::vector<simd::SimdLevel>
defaultSimdSweep()
{
    std::vector<simd::SimdLevel> levels{simd::SimdLevel::Scalar};
    if (simd::detectedLevel() != simd::SimdLevel::Scalar)
        levels.push_back(simd::SimdLevel::Auto);
    return levels;
}

/** Thread counts to sweep: 1, 2, and the hardware width (deduped). */
std::vector<int>
defaultThreadSweep()
{
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw < 1)
        hw = 1;
    std::vector<int> t{1, 2, 4, hw};
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    return t;
}

/** One benchmark entry: optimized kernel vs its naive oracle. */
struct Report
{
    bench::Table &table;
    bench::JsonWriter &json;
    const Options &opt;
    //! Modeled peak DRAM bandwidth of the active machine profile, GB/s;
    //! measured GB/s over this is the roofline fraction.
    double peakGBs =
        hwmodel::activeProfile().cpu.memBandwidth * 1e-9;

    void
    row(const std::string &kernel, long long n, int threads,
        const std::string &simdName, const bench::TimingResult &t,
        double bytesPerCall, double naiveSeconds,
        double oneThreadSeconds, double scalarSeconds)
    {
        double gbps = bytesPerCall / t.secondsPerCall * 1e-9;
        double rooflineFrac = peakGBs > 0.0 ? gbps / peakGBs : 0.0;
        double vsNaive =
            naiveSeconds > 0.0 ? naiveSeconds / t.secondsPerCall : 0.0;
        double vs1t = oneThreadSeconds > 0.0
                          ? oneThreadSeconds / t.secondsPerCall
                          : 0.0;
        double vsScalar = scalarSeconds > 0.0
                              ? scalarSeconds / t.secondsPerCall
                              : 0.0;
        table.row({kernel, std::to_string(n), std::to_string(threads),
                   simdName, bench::fmt("%.3f", t.secondsPerCall * 1e3),
                   bench::fmt("%.2f", gbps),
                   bench::fmt("%.2f", rooflineFrac),
                   naiveSeconds > 0.0 ? bench::fmt("%.2f", vsNaive) : "-",
                   oneThreadSeconds > 0.0 ? bench::fmt("%.2f", vs1t)
                                          : "-",
                   scalarSeconds > 0.0 ? bench::fmt("%.2f", vsScalar)
                                       : "-"});
        json.beginRecord();
        json.field("kernel", kernel);
        json.field("n", n);
        json.field("threads", static_cast<long long>(threads));
        json.field("simd", simdName);
        json.field("seconds", t.secondsPerCall);
        json.field("iters_per_rep", static_cast<long long>(t.itersPerRep));
        json.field("repetitions",
                   static_cast<long long>(t.repetitions));
        json.field("gb_per_s", gbps);
        json.field("roofline_frac", rooflineFrac);
        if (naiveSeconds > 0.0)
            json.field("speedup_vs_naive", vsNaive);
        if (oneThreadSeconds > 0.0)
            json.field("speedup_vs_1thread", vs1t);
        if (scalarSeconds > 0.0)
            json.field("speedup_vs_scalar", vsScalar);
        json.endRecord();
    }
};

/**
 * Sweep an optimized kernel over the SIMD levels x thread counts
 * against one naive baseline measurement; ratios vs the naive time,
 * vs the kernel's own 1-thread time at that level and vs the scalar
 * 1-thread time are recorded. @p optimized must be re-runnable.
 */
template <typename OptFn, typename NaiveFn>
void
sweep(Report &rep, const std::string &kernel, long long n,
      double bytesPerCall, OptFn &&optimized, NaiveFn &&naive)
{
    double naiveSec = 0.0;
    {
        kernelTuning().numThreads = 1;
        bench::TimingResult t = bench::timeKernel(naive, rep.opt.timing);
        naiveSec = t.secondsPerCall;
        rep.row(kernel + "_naive", n, 1, "-", t, bytesPerCall, 0.0, 0.0,
                0.0);
    }
    double scalarOneThreadSec = 0.0;
    for (simd::SimdLevel level : rep.opt.simdLevels) {
        kernelTuning().simd = level;
        const simd::SimdLevel resolved = simd::resolveLevel(level);
        const std::string simdName = simd::name(resolved);
        double oneThreadSec = 0.0;
        for (int threads : rep.opt.threads) {
            kernelTuning().numThreads = threads;
            bench::TimingResult t =
                bench::timeKernel(optimized, rep.opt.timing);
            if (threads == 1) {
                oneThreadSec = t.secondsPerCall;
                if (resolved == simd::SimdLevel::Scalar)
                    scalarOneThreadSec = t.secondsPerCall;
            }
            rep.row(kernel, n, threads, simdName, t, bytesPerCall,
                    naiveSec, threads == 1 ? 0.0 : oneThreadSec,
                    threads == 1 && resolved != simd::SimdLevel::Scalar
                        ? scalarOneThreadSec
                        : 0.0);
        }
    }
    kernelTuning().numThreads = 1;
    kernelTuning().simd = simd::SimdLevel::Auto;
}

void
benchSaxpy(Report &rep, std::int64_t n)
{
    auto x = randomVec(n);
    auto y = randomVec(n, 3);
    sweep(
        rep, "saxpy", n, static_cast<double>(n) * 12,
        [&] { mkl::saxpy(n, 1.0001f, x.data(), 1, y.data(), 1); },
        [&] { mkl::naive::saxpy(n, 1.0001f, x.data(), y.data()); });
}

void
benchSdot(Report &rep, std::int64_t n)
{
    auto x = randomVec(n);
    auto y = randomVec(n, 5);
    volatile float sink = 0.0f;
    sweep(
        rep, "sdot", n, static_cast<double>(n) * 8,
        [&] { sink = mkl::sdot(n, x.data(), 1, y.data(), 1); },
        [&] { sink = mkl::naive::sdot(n, x.data(), y.data()); });
    (void)sink;
}

void
benchSgemv(Report &rep, std::int64_t d)
{
    auto a = randomVec(d * d);
    auto x = randomVec(d, 7);
    std::vector<float> y(static_cast<std::size_t>(d));
    sweep(
        rep, "sgemv", d, static_cast<double>(d) * d * 4,
        [&] {
            mkl::sgemv(mkl::Order::RowMajor, mkl::Transpose::NoTrans, d,
                       d, 1.0f, a.data(), d, x.data(), 1, 0.0f, y.data(),
                       1);
        },
        [&] {
            mkl::naive::sgemv(d, d, a.data(), d, x.data(), y.data());
        });
}

void
benchCsrgemv(Report &rep, std::int64_t nodes)
{
    Rng rng(11);
    mkl::CsrMatrix m = mkl::randomGeometricGraph(nodes, 13.0, rng);
    auto x = randomVec(m.cols, 13);
    std::vector<float> y(static_cast<std::size_t>(m.rows));

    // Classic 1-based MKL arrays, as legacy callers hand them over.
    const int rows = static_cast<int>(m.rows);
    std::vector<int> ia(m.rowPtr.size());
    for (std::size_t i = 0; i < m.rowPtr.size(); ++i)
        ia[i] = static_cast<int>(m.rowPtr[i]) + 1;
    std::vector<int> ja(m.colIdx.size());
    for (std::size_t i = 0; i < m.colIdx.size(); ++i)
        ja[i] = m.colIdx[i] + 1;

    // ~12 bytes per nonzero (value + index + gathered x) + y writes.
    double bytes = static_cast<double>(m.nnz()) * 12 +
                   static_cast<double>(m.rows) * 4;
    sweep(
        rep, "csrgemv", m.nnz(), bytes,
        [&] {
            mkl_scsrgemv("N", &rows, m.vals.data(), ia.data(), ja.data(),
                         x.data(), y.data());
        },
        [&] { mkl::naive::spmv(m, x.data(), y.data()); });
}

void
benchSimatcopy(Report &rep, std::int64_t d)
{
    auto a = randomVec(d * d);
    std::vector<float> b(a.size());
    sweep(
        rep, "simatcopy", d, static_cast<double>(d) * d * 8,
        [&] {
            // Square in-place transpose: repeated calls alternate
            // between the two layouts, which is fine for timing.
            mkl_simatcopy('R', 'T', static_cast<std::size_t>(d),
                          static_cast<std::size_t>(d), 1.0f, a.data(),
                          static_cast<std::size_t>(d),
                          static_cast<std::size_t>(d));
        },
        [&] { mkl::naive::transpose(d, d, a.data(), b.data()); });
}

void
benchFftBatched(Report &rep, std::int64_t n, std::int64_t batch)
{
    auto in = randomCVec(n * batch);
    std::vector<mkl::cfloat> out(in.size());
    auto plan =
        mkl::FftPlan::dft1dBatched(n, batch, n, mkl::FftDirection::Forward);
    sweep(
        rep, "fft_batched", n * batch,
        static_cast<double>(n) * batch * 16,
        [&] { plan.execute(in.data(), out.data()); },
        [&] {
            for (std::int64_t b = 0; b < batch; ++b)
                mkl::naive::fftRecursive(in.data() + b * n,
                                         out.data() + b * n, n, -1);
        });
}

void
benchCherk(Report &rep, std::int64_t n, std::int64_t k)
{
    auto a = randomCVec(n * k);
    std::vector<mkl::cfloat> c(static_cast<std::size_t>(n * n));
    // No naive cherk oracle exists; report thread scaling only.
    sweep(
        rep, "cherk", n, static_cast<double>(n) * n * k * 4,
        [&] {
            mkl::cherk(mkl::Order::RowMajor, mkl::Uplo::Lower,
                       mkl::Transpose::NoTrans, n, k, 1.0f, a.data(), k,
                       0.0f, c.data(), n);
        },
        [&] {
            mkl::cherk(mkl::Order::RowMajor, mkl::Uplo::Lower,
                       mkl::Transpose::NoTrans, n, k, 1.0f, a.data(), k,
                       0.0f, c.data(), n);
        });
}

/** FNV-1a over raw bytes — the cross-ISA output digest. */
std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t h)
{
    const auto *b = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Digest of a representative kernel batch (map + reductions + gemv) at
 * the current tuning: every float bit of every output feeds the hash.
 */
std::uint64_t
outputDigest(std::int64_t n, const std::vector<float> &x,
             const std::vector<float> &y)
{
    std::vector<float> v(y);
    mkl::saxpy(n, 1.0001f, x.data(), 1, v.data(), 1);
    float d = mkl::sdot(n, x.data(), 1, y.data(), 1);
    float r = mkl::snrm2(n, x.data(), 1);
    float s = mkl::sasum(n, x.data(), 1);
    const std::int64_t dim = 128;
    std::vector<float> gy(static_cast<std::size_t>(dim));
    mkl::sgemv(mkl::Order::RowMajor, mkl::Transpose::NoTrans, dim, dim,
               1.0f, x.data(), dim, y.data(), 1, 0.0f, gy.data(), 1);
    std::uint64_t h = 1469598103934665603ull;
    h = fnv1a(v.data(), v.size() * sizeof(float), h);
    h = fnv1a(&d, sizeof(d), h);
    h = fnv1a(&r, sizeof(r), h);
    h = fnv1a(&s, sizeof(s), h);
    h = fnv1a(gy.data(), gy.size() * sizeof(float), h);
    return h;
}

/**
 * Bit-reproducibility probe. Two pins:
 *  - per level, the deterministic reductions must return identical bits
 *    for every thread count and across repeated runs;
 *  - every non-scalar level must produce the same output digest (the
 *    fixed-width virtual vectors make sse4/avx2/avx512 bit-identical).
 * @return true when every sweep agrees.
 */
bool
checkDeterminism(const Options &opt, bench::JsonWriter &json)
{
    const std::int64_t n = opt.quick ? (1 << 14) : (1 << 20);
    auto x = randomVec(n, 21);
    auto y = randomVec(n, 22);

    bool threadsOk = true;
    bool crossIsaOk = true;
    std::uint64_t vectorDigest = 0;
    bool haveVectorDigest = false;
    for (simd::SimdLevel level : simd::availableLevels()) {
        kernelTuning().simd = level;
        kernelTuning().numThreads = 1;
        const float dotRef = mkl::sdot(n, x.data(), 1, y.data(), 1);
        const float nrmRef = mkl::snrm2(n, x.data(), 1);
        const float asumRef = mkl::sasum(n, x.data(), 1);
        for (int threads : {1, 2, 8}) {
            kernelTuning().numThreads = threads;
            for (int rep = 0; rep < 3; ++rep) {
                float d = mkl::sdot(n, x.data(), 1, y.data(), 1);
                float r = mkl::snrm2(n, x.data(), 1);
                float s = mkl::sasum(n, x.data(), 1);
                threadsOk =
                    threadsOk &&
                    std::memcmp(&d, &dotRef, sizeof(float)) == 0 &&
                    std::memcmp(&r, &nrmRef, sizeof(float)) == 0 &&
                    std::memcmp(&s, &asumRef, sizeof(float)) == 0;
            }
            std::uint64_t digest = outputDigest(n, x, y);
            if (level != simd::SimdLevel::Scalar) {
                if (!haveVectorDigest) {
                    vectorDigest = digest;
                    haveVectorDigest = true;
                } else if (digest != vectorDigest) {
                    crossIsaOk = false;
                    std::fprintf(stderr,
                                 "cross-ISA digest mismatch at %s x %d "
                                 "threads\n",
                                 simd::name(level), threads);
                }
            }
        }
    }
    kernelTuning().numThreads = 1;
    kernelTuning().simd = simd::SimdLevel::Auto;
    json.meta("reductions_bit_identical", threadsOk);
    json.meta("cross_isa_bit_identical", crossIsaOk);
    return threadsOk && crossIsaOk;
}

/** The command line: --json PATH, --quick, --threads, --simd. */
Options
parseArgs(int argc, char **argv)
{
    std::string sweep;
    for (int t : defaultThreadSweep()) {
        if (!sweep.empty())
            sweep += ',';
        sweep += std::to_string(t);
    }
    FlagTable table("MiniMKL kernels: optimized vs naive, by thread count "
                    "and SIMD level.");
    const Flag &jsonRow =
        table.add({"json", FlagType::String, "", "write records to PATH"});
    const Flag &quickRow =
        table.add({"quick", FlagType::Bool, "", "small sizes, short budget"});
    const Flag &threadsRow = table.add(
        {"threads", FlagType::IntList, sweep, "thread counts", 1, 64});
    const Flag &simdRow = table.add({"simd", FlagType::String, "",
                                     "SIMD levels, comma-separated "
                                     "(default: scalar + the best)"});
    const Flags flags = table.parseOrExit(argc, argv);

    Options opt;
    opt.jsonPath = flags.text(jsonRow);
    opt.quick = flags.on(quickRow);
    if (opt.quick) {
        opt.timing.targetSeconds = 0.01;
        opt.timing.repetitions = 3;
    }
    const std::vector<std::int64_t> threads = flags.ints(threadsRow);
    opt.threads.assign(threads.begin(), threads.end());
    opt.simdLevels = defaultSimdSweep();
    if (flags.given(simdRow)) {
        opt.simdLevels.clear();
        std::stringstream list(flags.text(simdRow));
        std::string item;
        while (std::getline(list, item, ',')) {
            simd::SimdLevel level;
            if (!simd::parseLevel(item.c_str(), &level)) {
                std::fprintf(stderr, "unknown simd level '%s'\n",
                             item.c_str());
                std::exit(2);
            }
            opt.simdLevels.push_back(level);
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    bench::banner("kernels_microbench",
                  "library kernels must beat handwritten loops "
                  "(Figure 1) — optimized vs naive, by thread count");

    bench::Table table({"kernel", "n", "threads", "simd", "ms/call",
                        "GB/s", "roofline", "vs_naive", "vs_1t",
                        "vs_scalar"});
    bench::JsonWriter json;
    json.meta("bench", "kernels_microbench");
    json.meta("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
    json.meta("quick", opt.quick);
    json.meta("simd_detected", simd::name(simd::detectedLevel()));

    Report rep{table, json, opt};

    if (opt.quick) {
        benchSaxpy(rep, 1 << 14);
        benchSdot(rep, 1 << 14);
        benchSgemv(rep, 128);
        benchCsrgemv(rep, 1 << 12);
        benchSimatcopy(rep, 128);
        benchFftBatched(rep, 256, 16);
        benchCherk(rep, 48, 64);
    } else {
        benchSaxpy(rep, 1 << 16);
        benchSaxpy(rep, 1 << 20);
        benchSdot(rep, 1 << 16);
        benchSdot(rep, 1 << 20);
        benchSgemv(rep, 512);
        benchSgemv(rep, 2048);
        benchCsrgemv(rep, 1 << 14);
        benchCsrgemv(rep, 1 << 17);
        benchSimatcopy(rep, 512);
        benchSimatcopy(rep, 2048);
        benchFftBatched(rep, 1024, 256);
        benchCherk(rep, 256, 256);
    }

    bool deterministic = checkDeterminism(opt, json);

    table.print();
    std::printf("reductions bit-identical across threads and "
                "non-scalar ISA levels: %s\n",
                deterministic ? "yes" : "NO");

    if (!opt.jsonPath.empty()) {
        if (!json.writeFile(opt.jsonPath)) {
            std::fprintf(stderr, "failed to write %s\n",
                         opt.jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", opt.jsonPath.c_str());
    }
    return deterministic ? 0 : 1;
}

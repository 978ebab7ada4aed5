/**
 * @file
 * Benchmark program: runs one workload through the library's public API
 * and prints one JSON document of raw measurements on stdout. run.py
 * turns the document into the metrics named in BENCHMARK.json.
 *
 *   perfbench --workload figures|stap|tenants --seed N --seconds S
 *             --trace 0|1 [--smoke]
 *
 * Workloads (every one a closed loop driven from this process):
 *   figures  model-side figure points on a cost-only runtime: Fig 9 and
 *            Fig 10 evaluateOp (7 ops x 5 platforms each), Fig 11
 *            AccelModel::estimate design points, Fig 12 SAR chaining and
 *            FFT loops for n = 256..8192. Wall time is DRAM trace build
 *            and replay; MiniMKL does no work.
 *   stap     functional STAP on the medium set, alternating the host
 *            and the MEALib pipeline. Wall time is MiniMKL BLAS-3.
 *   tenants  4 client threads, one Session each, over one functional
 *            runtime with residency, integrity and checkpointing on:
 *            many small submissions from concurrent callers.
 *
 * A unit is one figure point, one STAP pipeline, or one tenant step. A
 * pass runs every unit of the workload once; the timed phase runs whole
 * passes until --seconds have elapsed. Modeled numbers (simulated
 * seconds and joules) come from the first pass and every later pass
 * must reproduce them bit for bit.
 *
 * --trace 1 splits the time between an untraced and a traced phase and
 * then runs the probes. Spans are recorded around every call this file
 * makes into a library module; they stay in memory until the end.
 * --smoke shrinks every input so the whole run, checks included, takes
 * a few seconds.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "accel/config.hh"
#include "accel/model.hh"
#include "apps/cg.hh"
#include "apps/sar.hh"
#include "apps/stap.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/ops.hh"
#include "dram/params.hh"
#include "dram/stack.hh"
#include "dram/tracegen.hh"
#include "hwmodel/profile.hh"
#include "mealib/platform.hh"
#include "minimkl/blas1.hh"
#include "minimkl/blas3.hh"
#include "minimkl/compat.hh"
#include "minimkl/fft.hh"
#include "minimkl/sparse.hh"
#include "noc/mesh.hh"
#include "runtime/runtime.hh"
#include "session/session.hh"

using namespace mealib;
using accel::AccelKind;

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** A double as JSON: shortest round-trip text, null if not finite. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

// --- spans -----------------------------------------------------------

/** Span names; the index is what a span stores. */
const char *const kSpanNames[] = {
    "unit.fig09",        "unit.fig10",       "unit.fig11",
    "unit.fig12_chain",  "unit.fig12_loop",  "unit.stap_host",
    "unit.stap_mealib",  "unit.cg",          "unit.blas",
    "unit.sar",          "unit.probe",       "apps.stap_host",
    "apps.stap_mealib",  "apps.fft_loop",    "apps.sar_chain",
    "apps.cg_mealib",    "mealib.evaluate_op", "accel.estimate",
    "dispatch.call",     "session.bind",
};

enum SpanName : int
{
    kUnitFig09,
    kUnitFig10,
    kUnitFig11,
    kUnitFig12Chain,
    kUnitFig12Loop,
    kUnitStapHost,
    kUnitStapMealib,
    kUnitCg,
    kUnitBlas,
    kUnitSar,
    kUnitProbe,
    kAppsStapHost,
    kAppsStapMealib,
    kAppsFftLoop,
    kAppsSarChain,
    kAppsCgMealib,
    kMealibEvaluateOp,
    kAccelEstimate,
    kDispatchCall,
    kSessionBind,
};

struct Span
{
    int name = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1; //!< index in the same SpanLog, -1 = root
    std::int32_t unit = -1;
};

/** Spans of one thread of the traced phase, in start order. */
struct SpanLog
{
    std::vector<Span> spans;
    std::vector<std::int32_t> open; //!< stack of unfinished spans
};

/** RAII span; does nothing when @p log is null (untraced phase). */
class Scope
{
  public:
    Scope(SpanLog *log, SpanName name, std::int32_t unit = -1) : log_(log)
    {
        if (log_ == nullptr)
            return;
        Span s;
        s.name = name;
        if (!log_->open.empty()) {
            s.parent = log_->open.back();
            s.unit = log_->spans[static_cast<std::size_t>(s.parent)].unit;
        }
        if (unit >= 0)
            s.unit = unit;
        idx_ = static_cast<std::int32_t>(log_->spans.size());
        log_->open.push_back(idx_);
        s.start = nowNs();
        log_->spans.push_back(s);
    }

    ~Scope()
    {
        if (log_ == nullptr)
            return;
        log_->spans[static_cast<std::size_t>(idx_)].end = nowNs();
        log_->open.pop_back();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log_;
    std::int32_t idx_ = -1;
};

// --- passes ----------------------------------------------------------

struct UnitRecord
{
    int kind = 0;        //!< a kUnit* span name
    double ms = 0.0;     //!< wall latency
    bool ok = true;      //!< output check passed
    double soloMs = 0.0; //!< tenants: the solo-oracle latency, else 0
};

/** Everything one pass produced. */
struct Pass
{
    std::vector<UnitRecord> units;
    /** Modeled numbers of each slot (a unit's fixed canonical position). */
    std::vector<std::vector<double>> modeled;
    std::uint64_t probes = 0;
    std::uint64_t probesFailed = 0;
    std::vector<std::string> failures;
    /** Per-pass counters (traced phase): name -> value. */
    std::vector<std::pair<std::string, double>> counters;
    /** Direct estimate/evaluate input keys issued in the pass. */
    std::vector<std::string> modelInputs;
};

void
addLedgerCounters(Pass &p, const EnergyLedger &after,
                  const EnergyLedger *before)
{
    for (const char *t : {"host", "accel", "invocation", "integrity"}) {
        Cost c = after.track(t);
        if (before != nullptr) {
            const Cost b = before->track(t);
            c.seconds -= b.seconds;
            c.joules -= b.joules;
        }
        p.counters.emplace_back(std::string("ledger.") + t + "_s",
                                c.seconds);
        p.counters.emplace_back(std::string("ledger.") + t + "_j",
                                c.joules);
    }
}

/** Dispatcher telemetry summed over a set of dispatchers. */
struct DispatchTotals
{
    double calls = 0.0;
    double offloaded = 0.0;
    double fallbackBy[static_cast<int>(dispatch::FallbackReason::kCount)] =
        {};

    void
    add(const dispatch::DispatchStats &s)
    {
        calls += static_cast<double>(s.totalCalls());
        offloaded += static_cast<double>(s.totalOffloaded());
        for (const dispatch::OpStats &o : s.byKind)
            for (std::size_t r = 0; r < o.fallbackBy.size(); ++r)
                fallbackBy[r] += static_cast<double>(o.fallbackBy[r]);
    }

    DispatchTotals
    operator-(const DispatchTotals &o) const
    {
        DispatchTotals d = *this;
        d.calls -= o.calls;
        d.offloaded -= o.offloaded;
        for (std::size_t r = 0; r < std::size(fallbackBy); ++r)
            d.fallbackBy[r] -= o.fallbackBy[r];
        return d;
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Number of modeled slots in a pass. */
    virtual std::size_t slots() const = 0;
    /** The set-up's warm-up unit. */
    virtual void warmUp() = 0;
    /** Run one pass; @p logs is null in the untraced phase. */
    virtual void pass(Pass &p, std::vector<SpanLog> *logs) = 0;
    /** Dispatcher telemetry so far (summed over the workload's). */
    virtual DispatchTotals dispatchTotals() const { return {}; }
    /** (name, ours, paper) headline ratios from a pass's modeled slots. */
    virtual std::vector<std::tuple<std::string, double, double>>
    paperRatios(const std::vector<std::vector<double>> &) const
    {
        return {};
    }
    /** Effective runtime layers this workload enables, as JSON. */
    virtual std::string layers() const = 0;
    /**
     * Whether every pass must reproduce the first pass's modeled
     * numbers. False where the runtime keeps state across passes that
     * legitimately changes later costs (residency, plan-image memo).
     */
    virtual bool modeledRepeats() const { return true; }
    /** Caller threads a pass keeps busy. */
    virtual unsigned clients() const { return 1; }
};

// --- figures ---------------------------------------------------------

constexpr AccelKind kTableKinds[] = {
    AccelKind::AXPY, AccelKind::DOT,  AccelKind::GEMV,  AccelKind::SPMV,
    AccelKind::RESMP, AccelKind::FFT, AccelKind::RESHP,
};
constexpr eval::Platform kPlatforms[] = {
    eval::Platform::HaswellMkl, eval::Platform::XeonPhiMkl,
    eval::Platform::Psas,       eval::Platform::Msas,
    eval::Platform::MeaLib,
};

struct FigPoint
{
    int kind;           //!< kUnitFig*
    std::size_t a = 0;  //!< op / design kind / size index
    std::size_t b = 0;  //!< platform / freq index / hardware flag
    std::size_t c = 0;  //!< PEs per tile index
    std::size_t d = 0;  //!< local-memory index
};

class Figures : public Workload
{
  public:
    Figures(std::uint64_t seed, bool smoke) : seed_(seed)
    {
        if (smoke) {
            freqs_ = {1.2_GHz};
            cores_ = {2, 4};
            lms_ = {128};
            sizes_ = {256, 512};
        }
        for (AccelKind k : kTableKinds)
            work_.push_back(eval::table2Workload(k, kScale));
        for (int fig : {kUnitFig09, kUnitFig10})
            for (std::size_t k = 0; k < work_.size(); ++k)
                for (std::size_t p = 0; p < std::size(kPlatforms); ++p)
                    points_.push_back({fig, k, p});
        for (std::size_t k = 0; k < 2; ++k)
            for (std::size_t f = 0; f < freqs_.size(); ++f)
                for (std::size_t c = 0; c < cores_.size(); ++c)
                    for (std::size_t l = 0; l < lms_.size(); ++l)
                        points_.push_back({kUnitFig11, k, f, c, l});
        for (int fig : {kUnitFig12Chain, kUnitFig12Loop})
            for (std::size_t n = 0; n < sizes_.size(); ++n)
                for (std::size_t hw = 0; hw < 2; ++hw)
                    points_.push_back({fig, n, hw});

        // The seed fixes the order the points run in; the modeled
        // numbers are kept per point, so they do not depend on it.
        order_.resize(points_.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        Rng rng(seed);
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng.below(i)]);

        // Cost-only runtime: addresses are modeled and buffers are never
        // touched, so the 8192^2 Fig 12 points fit in an 8 MiB arena.
        runtime::RuntimeConfig cfg;
        cfg.functional = false;
        cfg.backingBytes = 8_MiB;
        cfg.residency.enabled = false;
        rt_ = std::make_unique<runtime::MealibRuntime>(cfg);
    }

    std::size_t slots() const override { return points_.size(); }

    void
    warmUp() override
    {
        // The first SAR-chain point: it touches the runtime, the
        // accelerator model and the DRAM simulator, and does not depend
        // on the seed.
        const auto first = std::find_if(
            points_.begin(), points_.end(),
            [](const FigPoint &p) { return p.kind == kUnitFig12Chain; });
        std::vector<double> v;
        runPoint(*first, nullptr, -1, v);
    }

    void
    pass(Pass &p, std::vector<SpanLog> *logs) override
    {
        SpanLog *log = logs != nullptr ? &(*logs)[0] : nullptr;
        // Every pass starts the modeled clock at zero: critical paths are
        // differences of absolute modeled times, which round differently
        // later on the clock.
        rt_->resetAccounting();
        const EnergyLedger before = rt_->ledger();
        p.modeled.assign(points_.size(), {});
        for (std::size_t idx : order_) {
            const FigPoint &pt = points_[idx];
            const std::int64_t t0 = nowNs();
            const bool ok = runPoint(pt, log, static_cast<int>(idx),
                                     p.modeled[idx]);
            p.units.push_back({pt.kind, secondsSince(t0) * 1e3, ok});
            if (!ok)
                p.failures.push_back("figures: point " +
                                     std::to_string(idx) +
                                     " gave a non-positive result");
            p.modelInputs.push_back(modelKey(pt));
        }
        addLedgerCounters(p, rt_->ledger(), &before);
    }

    std::vector<std::tuple<std::string, double, double>>
    paperRatios(const std::vector<std::vector<double>> &m) const override
    {
        // Fig 9/10 slots hold {seconds, joules, perf, perf/W}; Fig 12
        // slots {seconds, joules, critical path, descriptors}.
        auto fig = [&](int kind, std::size_t k, std::size_t p) {
            for (std::size_t i = 0; i < points_.size(); ++i)
                if (points_[i].kind == kind && points_[i].a == k &&
                    points_[i].b == p)
                    return &m[i];
            return static_cast<const std::vector<double> *>(nullptr);
        };
        auto avgGain = [&](int kind, std::size_t plat, std::size_t field) {
            double sum = 0.0;
            for (std::size_t k = 0; k < work_.size(); ++k)
                sum += (*fig(kind, k, plat))[field] /
                       (*fig(kind, k, 0))[field];
            return sum / static_cast<double>(work_.size());
        };
        auto swOverHw = [&](int kind) {
            return (*fig(kind, 0, 0))[0] / (*fig(kind, 0, 1))[0];
        };
        return {
            {"fig09_mealib_avg", avgGain(kUnitFig09, 4, 2), 38.0},
            {"fig09_psas_avg", avgGain(kUnitFig09, 2, 2), 2.51},
            {"fig09_msas_avg", avgGain(kUnitFig09, 3, 2), 10.32},
            {"fig10_mealib_avg", avgGain(kUnitFig10, 4, 3), 75.0},
            {"fig12_chain_sw_hw_256", swOverHw(kUnitFig12Chain), 2.5},
            {"fig12_loop_sw_hw_256", swOverHw(kUnitFig12Loop), 9.5},
        };
    }

    std::string
    layers() const override
    {
        return "{\"functional\": false, \"stacks\": 1, \"residency\": "
               "false, \"integrity\": false, \"checkpoint_interval\": 0, "
               "\"faults\": false, \"scale\": 0.0625}";
    }

  private:
    static constexpr double kScale = 1.0 / 16.0;
    static constexpr std::uint64_t kLoopCount = 128;

    std::string
    modelKey(const FigPoint &pt) const
    {
        if (pt.kind == kUnitFig09 || pt.kind == kUnitFig10)
            return "eval/" + std::to_string(pt.a) + "/" +
                   std::to_string(pt.b);
        if (pt.kind == kUnitFig11)
            return "estimate/" + std::to_string(pt.a) + "/" +
                   num(freqs_[pt.b]) + "/" + std::to_string(cores_[pt.c]) +
                   "/" + std::to_string(lms_[pt.d]);
        return ""; // Fig 12 points call no model directly
    }

    bool
    runPoint(const FigPoint &pt, SpanLog *log, int unit,
             std::vector<double> &out)
    {
        Scope u(log, static_cast<SpanName>(pt.kind), unit);
        if (pt.kind == kUnitFig09 || pt.kind == kUnitFig10) {
            eval::OpResult r;
            {
                Scope s(log, kMealibEvaluateOp);
                r = eval::evaluateOp(kPlatforms[pt.b], work_[pt.a]);
            }
            out = {r.cost.seconds, r.cost.joules, r.perf(),
                   r.perfPerWatt()};
        } else if (pt.kind == kUnitFig11) {
            const AccelKind kind = pt.a == 0 ? AccelKind::FFT
                                             : AccelKind::SPMV;
            const eval::Workload &w = work_[pt.a == 0 ? 5 : 3];
            accel::AccelConfig cfg = accel::defaultConfig(kind);
            cfg.freq = freqs_[pt.b];
            cfg.coresPerTile = cores_[pt.c];
            cfg.localMemKiB = lms_[pt.d];
            accel::AccelModel model(kind, cfg, dram::hmcStack(),
                                    noc::mealibMesh());
            accel::AccelEstimate e;
            {
                Scope s(log, kAccelEstimate);
                e = model.estimate(w.call, w.loop);
            }
            out = {e.total.seconds, e.total.joules, e.gflops(),
                   e.gflopsPerW()};
        } else if (pt.kind == kUnitFig12Chain) {
            apps::SarResult r;
            {
                Scope s(log, kAppsSarChain);
                r = apps::runSarChain(sizes_[pt.a], pt.b != 0, *rt_,
                                      seed_);
            }
            out = {r.total.seconds, r.total.joules, r.criticalPathSeconds,
                   static_cast<double>(r.descriptors)};
        } else {
            apps::FftLoopResult r;
            {
                Scope s(log, kAppsFftLoop);
                r = apps::runFftLoop(sizes_[pt.a], kLoopCount, pt.b != 0,
                                     *rt_);
            }
            out = {r.total.seconds, r.total.joules, r.criticalPathSeconds,
                   static_cast<double>(r.descriptors)};
        }
        for (double v : out)
            if (!(std::isfinite(v) && v > 0.0))
                return false;
        return true;
    }

    std::uint64_t seed_;
    std::vector<double> freqs_ = {0.8_GHz, 1.2_GHz, 1.6_GHz, 2.0_GHz};
    std::vector<unsigned> cores_ = {1, 2, 4, 8};
    std::vector<std::uint64_t> lms_ = {64, 128, 256};
    std::vector<std::uint64_t> sizes_ = {256, 512, 1024, 2048, 4096, 8192};
    std::vector<eval::Workload> work_;
    std::vector<FigPoint> points_;
    std::vector<std::size_t> order_;
    std::unique_ptr<runtime::MealibRuntime> rt_;
};

// --- stap ------------------------------------------------------------

/** Modeled numbers of one STAP result. */
std::vector<double>
stapModeled(const apps::StapResult &r)
{
    std::vector<double> v = {r.total().seconds, r.total().joules,
                             r.criticalPathSeconds,
                             static_cast<double>(r.descriptors),
                             static_cast<double>(r.libraryCalls)};
    for (const auto &[name, c] : r.ledger.tracks()) {
        v.push_back(c.seconds);
        v.push_back(c.joules);
    }
    return v;
}

bool
ledgerMatches(const Cost &ledger, const Cost &total)
{
    auto close = [](double a, double b) {
        return std::abs(a - b) <= 1e-12 * std::max(std::abs(b), 1e-300);
    };
    return close(ledger.seconds, total.seconds) &&
           close(ledger.joules, total.joules);
}

class Stap : public Workload
{
  public:
    Stap(std::uint64_t seed, bool smoke)
        : params_(smoke ? apps::StapParams::smallSet()
                        : apps::StapParams::mediumSet())
    {
        params_.seed = seed;
        runtime::RuntimeConfig cfg;
        cfg.backingBytes = smoke ? 128_MiB : 256_MiB;
        cfg.residency.enabled = false;
        rt_ = std::make_unique<runtime::MealibRuntime>(cfg);
    }

    std::size_t slots() const override { return 2; }

    void
    warmUp() override
    {
        apps::runStapMealib(params_, *rt_);
    }

    void
    pass(Pass &p, std::vector<SpanLog> *logs) override
    {
        SpanLog *log = logs != nullptr ? &(*logs)[0] : nullptr;
        const int unitBase = 2 * static_cast<int>(passes_++);
        apps::StapResult host;
        apps::StapResult mea;
        std::int64_t t0 = nowNs();
        {
            Scope u(log, kUnitStapHost, unitBase);
            Scope s(log, kAppsStapHost);
            host = apps::runStapHost(params_);
        }
        const double hostMs = secondsSince(t0) * 1e3;
        t0 = nowNs();
        {
            Scope u(log, kUnitStapMealib, unitBase + 1);
            Scope s(log, kAppsStapMealib);
            mea = apps::runStapMealib(params_, *rt_);
        }
        const double meaMs = secondsSince(t0) * 1e3;

        const bool same =
            host.prods.size() == mea.prods.size() && !host.prods.empty() &&
            std::memcmp(host.prods.data(), mea.prods.data(),
                        host.prods.size() * sizeof(host.prods[0])) == 0;
        const bool hostLedger =
            ledgerMatches(host.ledger.total(), host.total());
        const bool meaLedger = ledgerMatches(mea.ledger.total(), mea.total());
        if (!same)
            p.failures.push_back("stap: host and MEALib products differ");
        if (!hostLedger)
            p.failures.push_back("stap: host ledger != total()");
        if (!meaLedger)
            p.failures.push_back("stap: MEALib ledger != total()");
        p.units.push_back({kUnitStapHost, hostMs, same && hostLedger});
        p.units.push_back({kUnitStapMealib, meaMs, same && meaLedger});
        p.modeled = {stapModeled(host), stapModeled(mea)};

        EnergyLedger both = host.ledger;
        for (const auto &[name, c] : mea.ledger.tracks())
            both.post(name, c);
        addLedgerCounters(p, both, nullptr);
    }

    DispatchTotals
    dispatchTotals() const override
    {
        DispatchTotals t;
        t.add(dispatch::currentDispatcher().snapshot());
        return t;
    }

    std::vector<std::tuple<std::string, double, double>>
    paperRatios(const std::vector<std::vector<double>> &m) const override
    {
        const double perf = m[0][0] / m[1][0];
        const double edp = (m[0][0] * m[0][1]) / (m[1][0] * m[1][1]);
        return {{"fig13_medium_perf", perf, 2.3},
                {"fig13_medium_edp", edp, 9.0}};
    }

    std::string
    layers() const override
    {
        return "{\"functional\": true, \"stacks\": 1, \"residency\": "
               "false, \"integrity\": false, \"checkpoint_interval\": 0, "
               "\"faults\": false, \"policy\": \"host\", \"arena_mib\": " +
               std::to_string(rt_->config().backingBytes >> 20) +
               ", \"dot_calls\": " + std::to_string(params_.dotCalls()) +
               "}";
    }

  private:
    apps::StapParams params_;
    std::unique_ptr<runtime::MealibRuntime> rt_;
    std::uint64_t passes_ = 0;
};

// --- tenants ---------------------------------------------------------

constexpr unsigned kClients = 4;

/** One tenant: its session and the inputs of its three units. */
struct Client
{
    std::unique_ptr<Session> session;
    mkl::CsrMatrix a;          //!< CG system
    std::vector<float> b;      //!< CG right-hand side
    std::int64_t n = 0;        //!< BLAS unit vector length
    float *x = nullptr;        //!< arena-resident BLAS operands
    float *y = nullptr;
    std::vector<float> x0, y0; //!< their pristine contents
    std::uint64_t sarSeed = 0;
    std::vector<float> px, py; //!< probe operands, outside the arena
    std::uint64_t chainRef = 0; //!< software-chained SAR image digest
    std::uint64_t oracle[3] = {};
    double soloMs[3] = {};
};

class Tenants : public Workload
{
  public:
    Tenants(std::uint64_t seed, bool smoke)
        : cgBase_(smoke ? 256 : 2048), blasBase_(smoke ? 4096 : 65536),
          pairs_(smoke ? 10 : kPairs), sarN_(smoke ? 64 : 256),
          probeN_(smoke ? 512 : 4096)
    {
        rt_ = std::make_unique<runtime::MealibRuntime>(config());
        for (unsigned i = 0; i < kClients; ++i) {
            Client &c = clients_[i];
            c.session = std::make_unique<Session>(*rt_, sessionOptions());
            makeInputs(c, i, seed);
            c.x = static_cast<float *>(rt_->memAlloc(
                static_cast<std::uint64_t>(c.n) * 4));
            c.y = static_cast<float *>(rt_->memAlloc(
                static_cast<std::uint64_t>(c.n) * 4));
        }
    }

    ~Tenants() override
    {
        for (Client &c : clients_) {
            rt_->memFree(c.x);
            rt_->memFree(c.y);
        }
    }

    /** Runtime config of the shared runtime and of the solo oracles. */
    static runtime::RuntimeConfig
    config()
    {
        runtime::RuntimeConfig cfg;
        cfg.backingBytes = 64_MiB;
        cfg.numStacks = 1;
        cfg.residency.enabled = true;
        cfg.integrity.verifyTransfers = true;
        cfg.checkpoint.intervalComps = 8;
        return cfg;
    }

    static SessionOptions
    sessionOptions()
    {
        SessionOptions o;
        o.policy = "accel";
        o.fusionWindow = 4;
        return o;
    }

    std::size_t slots() const override { return 3 * kClients; }
    bool modeledRepeats() const override { return false; }
    unsigned clients() const override { return threads_; }

    /**
     * Caller threads of later passes: 4 gives one thread per client; 1
     * runs the same four clients' units back to back on one thread (the
     * 1-client baseline of runtime.scaling_eff).
     */
    void setThreads(unsigned threads) { threads_ = threads; }

    void
    warmUp() override
    {
        std::vector<double> m;
        for (unsigned i = 0; i < kClients; ++i) {
            SessionBinding bound = clients_[i].session->bind();
            runUnit(clients_[i], *clients_[i].session, 0, nullptr, -1, m);
        }
        rt_->waitAll();
    }

    /**
     * Solo oracles: each unit alone on a private runtime with the same
     * config and session options. Their digests are what every
     * contended run of the unit must reproduce.
     */
    void
    runOracles()
    {
        for (unsigned i = 0; i < kClients; ++i) {
            runtime::MealibRuntime solo(config());
            Session s(solo, sessionOptions());
            SessionBinding bound = s.bind();
            Client c;
            c.a = clients_[i].a;
            c.b = clients_[i].b;
            c.n = clients_[i].n;
            c.x0 = clients_[i].x0;
            c.y0 = clients_[i].y0;
            c.sarSeed = clients_[i].sarSeed;
            c.x = static_cast<float *>(
                solo.memAlloc(static_cast<std::uint64_t>(c.n) * 4));
            c.y = static_cast<float *>(
                solo.memAlloc(static_cast<std::uint64_t>(c.n) * 4));
            std::vector<double> m;
            for (unsigned u = 0; u < 3; ++u) {
                const std::int64_t t0 = nowNs();
                clients_[i].oracle[u] = runUnit(c, s, u, nullptr, -1, m);
                clients_[i].soloMs[u] = secondsSince(t0) * 1e3;
            }
            const apps::SarResult sw =
                apps::runSarChain(kChainProbeN, false, solo, c.sarSeed);
            clients_[i].chainRef =
                fnv1a(kFnvOffset, sw.image.data(),
                      sw.image.size() * sizeof(sw.image[0]));
            solo.waitAll();
            solo.memFree(c.x);
            solo.memFree(c.y);
        }
    }

    void
    pass(Pass &p, std::vector<SpanLog> *logs) override
    {
        const runtime::RuntimeAccounting before = rt_->accounting();
        const EnergyLedger ledgerBefore = rt_->ledger();
        const int unitBase = 5 * kClients * static_cast<int>(passes_++);
        std::vector<Pass> per(kClients);
        auto client = [&](unsigned i) {
            Client &c = clients_[i];
            Pass &cp = per[i];
            SpanLog *log = logs != nullptr ? &(*logs)[i] : nullptr;
            std::int64_t t0 = nowNs();
            std::unique_ptr<SessionBinding> bound;
            {
                Scope s(log, kSessionBind);
                bound = std::make_unique<SessionBinding>(c.session->bind());
            }
            const double bindMs = secondsSince(t0) * 1e3;
            cp.modeled.resize(3);
            for (unsigned u = 0; u < 3; ++u) {
                const int unit = unitBase + static_cast<int>(5 * i + u);
                t0 = nowNs();
                const std::uint64_t d =
                    runUnit(c, *c.session, u, log, unit, cp.modeled[u]);
                double ms = secondsSince(t0) * 1e3;
                if (u == 0)
                    ms += bindMs;
                const bool ok = d == c.oracle[u];
                if (!ok)
                    cp.failures.push_back(
                        "tenants: client " + std::to_string(i) + " unit " +
                        std::to_string(u) + " digest differs from its "
                        "solo oracle");
                cp.units.push_back({kUnitKinds[u], ms, ok, c.soloMs[u]});
            }
            cp.probes = 2;
            cp.probesFailed =
                (saxpyProbe(c, log, unitBase + 5 * i + 3) ? 0 : 1) +
                (chainProbe(c, log, unitBase + 5 * i + 4) ? 0 : 1);
        };
        if (threads_ == 1) {
            for (unsigned i = 0; i < kClients; ++i)
                client(i);
        } else {
            std::vector<std::thread> pool;
            pool.reserve(kClients);
            std::vector<std::exception_ptr> errors(kClients);
            for (unsigned i = 0; i < kClients; ++i)
                pool.emplace_back([&, i] {
                    try {
                        client(i);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                });
            for (std::thread &t : pool)
                t.join();
            for (const std::exception_ptr &e : errors)
                if (e)
                    std::rethrow_exception(e);
        }
        rt_->waitAll();

        p.modeled.clear();
        for (Pass &cp : per) {
            p.units.insert(p.units.end(), cp.units.begin(), cp.units.end());
            p.modeled.insert(p.modeled.end(), cp.modeled.begin(),
                             cp.modeled.end());
            p.failures.insert(p.failures.end(), cp.failures.begin(),
                              cp.failures.end());
            p.probes += cp.probes;
            p.probesFailed += cp.probesFailed;
        }

        // The session ledgers must add up to the shared accounting.
        Cost sum;
        for (const Client &c : clients_)
            sum += c.session->ledger().total();
        const Cost agg = rt_->accounting().total();
        auto off = [](double a, double b) {
            return std::abs(a - b) > 1e-9 * std::max(std::abs(b), 1e-300);
        };
        if (off(sum.seconds, agg.seconds) || off(sum.joules, agg.joules))
            p.failures.push_back("tenants: session ledgers do not sum to "
                                 "the runtime accounting");

        const runtime::RuntimeAccounting &now = rt_->accounting();
        auto delta = [&](std::uint64_t a, std::uint64_t b) {
            return static_cast<double>(a - b);
        };
        p.counters = {
            {"runtime.flush_bytes_elided",
             delta(now.flushBytesElided, before.flushBytesElided)},
            {"runtime.verify_bytes_elided",
             delta(now.verifyBytesElided, before.verifyBytesElided)},
            {"runtime.plan_image_reuses",
             delta(now.planImageReuses, before.planImageReuses)},
            {"runtime.fused_programs",
             delta(now.fusedPrograms, before.fusedPrograms)},
            {"runtime.checkpoints",
             delta(now.checkpointsTaken, before.checkpointsTaken)},
            {"runtime.makespan_s",
             now.makespanSeconds - before.makespanSeconds},
        };
        addLedgerCounters(p, rt_->ledger(), &ledgerBefore);
    }

    DispatchTotals
    dispatchTotals() const override
    {
        DispatchTotals t;
        for (const Client &c : clients_)
            t.add(c.session->dispatcher().snapshot());
        return t;
    }

    std::string
    layers() const override
    {
        return "{\"functional\": true, \"stacks\": 1, \"residency\": "
               "true, \"integrity\": true, \"checkpoint_interval\": 8, "
               "\"faults\": false, \"policy\": \"accel\", "
               "\"fusion_window\": 4, \"clients\": 4, \"arena_mib\": 64}";
    }

  private:
    static constexpr int kUnitKinds[3] = {kUnitCg, kUnitBlas, kUnitSar};
    /** saxpby + sdot pairs per BLAS unit: each pair is two accelerator
     * submissions with a DRAM replay inside the runtime lock, so 40
     * pairs keep a 4-client pass near 2 s on a 4-vCPU x86-64 VM. */
    static constexpr unsigned kPairs = 40;

    void
    makeInputs(Client &c, unsigned i, std::uint64_t seed)
    {
        c.a = apps::cgTestMatrix(cgBase_ * (i + 1), seed + i);
        Rng rng(seed * 4 + i);
        c.b.resize(static_cast<std::size_t>(c.a.rows));
        for (float &v : c.b)
            v = rng.uniform(-1.0f, 1.0f);
        c.n = blasBase_ * (i + 1);
        c.x0.resize(static_cast<std::size_t>(c.n));
        c.y0.resize(static_cast<std::size_t>(c.n));
        for (std::size_t k = 0; k < c.x0.size(); ++k) {
            c.x0[k] = rng.uniform(-1.0f, 1.0f);
            c.y0[k] = rng.uniform(-1.0f, 1.0f);
        }
        c.sarSeed = seed + i;
        c.px.resize(static_cast<std::size_t>(probeN_));
        c.py.resize(static_cast<std::size_t>(probeN_));
        for (std::size_t k = 0; k < c.px.size(); ++k) {
            c.px[k] = rng.uniform(-1.0f, 1.0f);
            c.py[k] = rng.uniform(-1.0f, 1.0f);
        }
    }

    /**
     * Run unit @p u of client @p c on the calling thread, which must be
     * bound to @p session. @p modeled receives the session ledger's cost
     * of the unit. @return FNV-1a digest of the output.
     */
    std::uint64_t
    runUnit(Client &c, Session &session, unsigned u, SpanLog *log,
            int unit, std::vector<double> &modeled)
    {
        runtime::MealibRuntime &rt = session.runtime();
        const Cost before = session.ledger().total();
        std::uint64_t h = kFnvOffset;
        Scope us(log, static_cast<SpanName>(kUnitKinds[u]), unit);
        if (u == 0) {
            apps::CgOptions opts;
            opts.exclusive = false;
            apps::CgResult r;
            {
                Scope s(log, kAppsCgMealib);
                r = apps::solveCgMealib(c.a, c.b, rt, opts);
            }
            h = fnv1a(h, r.x.data(), r.x.size() * sizeof(float));
            h = fnv1a(h, &r.iterations, sizeof(r.iterations));
        } else if (u == 1) {
            const std::size_t bytes = static_cast<std::size_t>(c.n) * 4;
            std::memcpy(c.x, c.x0.data(), bytes);
            std::memcpy(c.y, c.y0.data(), bytes);
            rt.noteHostWrite(c.x, bytes);
            rt.noteHostWrite(c.y, bytes);
            const int n = static_cast<int>(c.n);
            for (unsigned k = 0; k < pairs_; ++k) {
                const float a = 0.25f + 0.125f * static_cast<float>(k % 4);
                float dot;
                {
                    Scope s(log, kDispatchCall);
                    cblas_saxpby(n, a, c.x, 1, 0.5f, c.y, 1);
                }
                {
                    Scope s(log, kDispatchCall);
                    dot = cblas_sdot(n, c.x, 1, c.y, 1);
                }
                h = fnv1a(h, &dot, sizeof(dot));
            }
            session.sync();
            h = fnv1a(h, c.y, bytes);
        } else {
            apps::SarResult r;
            {
                Scope s(log, kAppsSarChain);
                r = apps::runSarChain(sarN_, false, rt, c.sarSeed);
            }
            h = fnv1a(h, r.image.data(),
                      r.image.size() * sizeof(r.image[0]));
        }
        session.sync();
        const Cost after = session.ledger().total();
        modeled = {after.seconds - before.seconds,
                   after.joules - before.joules};
        return h;
    }

    /**
     * cblas_saxpy on std::vector operands under the accel policy. The
     * operands are outside accelerator memory, so the call should
     * decline the offload and run on the host (docs/DISPATCH.md).
     * @return true when it did so with the host's exact result.
     */
    bool
    saxpyProbe(Client &c, SpanLog *log, int unit)
    {
        std::vector<float> y = c.py;
        std::vector<float> expect = c.py;
        mkl::saxpy(probeN_, 2.0f, c.px.data(), 1, expect.data(), 1);
        Scope us(log, kUnitProbe, unit);
        try {
            Scope s(log, kDispatchCall);
            cblas_saxpy(static_cast<int>(probeN_), 2.0f, c.px.data(), 1,
                        y.data(), 1);
        } catch (const std::exception &) {
            return false;
        }
        return std::memcmp(y.data(), expect.data(), y.size() * 4) == 0;
    }

    /**
     * Hardware-chained SAR (RESMP and FFT in one PASS) with integrity
     * verification on, on a fresh private runtime so the outcome does
     * not depend on what earlier runs left in the arena. It should give
     * the software-chained image; today the integrity check of the
     * chained PASS throws on a freshly written intermediate.
     * @return true when it ran and matched the software chain.
     */
    bool
    chainProbe(Client &c, SpanLog *log, int unit)
    {
        runtime::RuntimeConfig cfg = config();
        cfg.backingBytes = 8_MiB;
        runtime::MealibRuntime rt(cfg);
        Session s(rt, sessionOptions());
        SessionBinding bound = s.bind();
        Scope us(log, kUnitProbe, unit);
        try {
            Scope span(log, kAppsSarChain);
            const apps::SarResult r =
                apps::runSarChain(kChainProbeN, true, rt, c.sarSeed);
            return fnv1a(kFnvOffset, r.image.data(),
                         r.image.size() * sizeof(r.image[0])) ==
                   c.chainRef;
        } catch (const std::exception &) {
            return false;
        }
    }

    static constexpr std::uint64_t kChainProbeN = 64;

    std::int64_t cgBase_;
    std::int64_t blasBase_;
    unsigned pairs_;
    std::uint64_t sarN_;
    std::int64_t probeN_;
    std::unique_ptr<runtime::MealibRuntime> rt_;
    Client clients_[kClients];
    unsigned threads_ = kClients;
    std::uint64_t passes_ = 0;
};

// --- probes (traced run only) ----------------------------------------

/** Median wall seconds of @p fn over @p reps repetitions of @p inner. */
double
medianSeconds(const std::function<void()> &fn, int inner, int reps = 7)
{
    fn(); // warm caches and lazy state
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < inner; ++i)
            fn();
        t.push_back(secondsSince(t0) / inner);
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

std::vector<std::pair<std::string, double>>
runProbes(bool smoke)
{
    std::vector<std::pair<std::string, double>> out;
    const int scale = smoke ? 1 : 10;
    Rng rng(12345);
    auto fill = [&](auto &v) {
        for (auto &e : v)
            e = static_cast<std::remove_reference_t<decltype(e)>>(
                rng.uniform(-1.0f, 1.0f));
    };

    // MiniMKL at STAP's shapes (dofLen 42, tbs 32, 32 steering vectors).
    const apps::StapParams sp = apps::StapParams::mediumSet();
    const std::int64_t l = sp.dofLen(), k = sp.tbs, ns = sp.nSteering;
    std::vector<mkl::cfloat> a(static_cast<std::size_t>(k * l));
    std::vector<mkl::cfloat> r(static_cast<std::size_t>(l * l));
    std::vector<mkl::cfloat> y(static_cast<std::size_t>(l * ns));
    for (auto &e : a)
        e = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    const double herk = medianSeconds(
        [&] {
            mkl::cherk(mkl::Order::RowMajor, mkl::Uplo::Lower,
                       mkl::Transpose::ConjTrans, l, k, 1.0f, a.data(), l,
                       0.0f, r.data(), l);
        },
        20 * scale);
    // Computed flops: 8 real flops per complex multiply-add, k of them
    // for each of the l(l+1)/2 lower-triangle entries.
    out.emplace_back("minimkl.cherk.gflops",
                     4.0 * k * l * (l + 1) / herk / 1e9);
    for (std::int64_t d = 0; d < l; ++d)
        r[static_cast<std::size_t>(d * l + d)] += mkl::cfloat{
            static_cast<float>(l), 0.0f};
    std::vector<mkl::cfloat> y0(y.size());
    for (auto &e : y0)
        e = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    const double trsm = medianSeconds(
        [&] {
            y = y0;
            mkl::ctrsm(mkl::Order::RowMajor, mkl::Side::Left,
                       mkl::Uplo::Lower, mkl::Transpose::NoTrans,
                       mkl::Diag::NonUnit, l, ns, {1.0f, 0.0f}, r.data(),
                       l, y.data(), ns);
        },
        20 * scale);
    // Computed flops: 8 real flops per complex multiply-add, l^2/2 of
    // them per right-hand-side column.
    out.emplace_back("minimkl.ctrsm.gflops",
                     4.0 * l * l * ns / trsm / 1e9);

    mkl::cfloat sink{};
    const double dotS = medianSeconds(
        [&] { sink += mkl::cdotc(l, a.data(), 1, a.data() + l, 1); },
        2000 * scale);
    out.emplace_back("minimkl.cdotc.ns", dotS * 1e9);
    const double dispS = medianSeconds(
        [&] {
            sink += dispatch::ops::cdotc(l, a.data(), 1, a.data() + l, 1);
        },
        2000 * scale);
    out.emplace_back("dispatch.cdotc.overhead_ns", (dispS - dotS) * 1e9);

    // BLAS-1 at the largest tenant shape (4 x 65536 floats).
    const std::int64_t n = smoke ? 16384 : 262144;
    std::vector<float> x(static_cast<std::size_t>(n)),
        yv(static_cast<std::size_t>(n));
    fill(x);
    fill(yv);
    const double axpby = medianSeconds(
        [&] { mkl::saxpby(n, 0.5f, x.data(), 1, 0.5f, yv.data(), 1); },
        4 * scale);
    out.emplace_back("minimkl.saxpby.gbps", 12.0 * n / axpby / 1e9);
    float fsink = 0.0f;
    const double sdot = medianSeconds(
        [&] { fsink += mkl::sdot(n, x.data(), 1, yv.data(), 1); },
        4 * scale);
    out.emplace_back("minimkl.sdot.gbps", 8.0 * n / sdot / 1e9);

    // CSR SpMV on the largest tenant CG matrix.
    const mkl::CsrMatrix m = apps::cgTestMatrix(smoke ? 1024 : 8192, 7);
    std::vector<float> mx(static_cast<std::size_t>(m.cols), 1.0f),
        my(static_cast<std::size_t>(m.rows));
    const double spmv =
        medianSeconds([&] { mkl::scsrmv(m, mx.data(), my.data()); },
                      4 * scale);
    // Computed bytes: values + column indices + row pointers + x gathers
    // + y.
    const double csrBytes = 12.0 * m.nnz() + 8.0 * (m.rows + 1) +
                            4.0 * m.rows;
    out.emplace_back("minimkl.csrmv.gbps", csrBytes / spmv / 1e9);

    // FFT at the SAR shape: 256 transforms of 256 points.
    const std::int64_t fn = 256, batch = smoke ? 16 : 256;
    std::vector<mkl::cfloat> fi(static_cast<std::size_t>(fn * batch)),
        fo(fi.size());
    for (auto &e : fi)
        e = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    const mkl::FftPlan plan = mkl::FftPlan::dft1dBatched(
        fn, batch, fn, mkl::FftDirection::Forward);
    const double fft = medianSeconds(
        [&] { plan.execute(fi.data(), fo.data()); }, 2 * scale);
    // Computed flops: 5 n log2 n per transform.
    out.emplace_back("minimkl.fft.gflops",
                     5.0 * fn * std::log2(static_cast<double>(fn)) *
                         batch / fft / 1e9);

    // DRAM: trace build and cycle replay on three stream shapes at the
    // HMC stack and the 2 MiB sampled window. Each replay gets a fresh
    // stack, whose construction is timed with it.
    const dram::DramParams hmc = dram::hmcStack();
    const std::uint64_t region = smoke ? 4_MiB : 64_MiB;
    double buildS = 0.0, runS = 0.0, reqs = 0.0;
    std::uint64_t hits = 0, misses = 0;
    for (int shape = 0; shape < 3; ++shape) {
        dram::TraceBuilder tb(hmc, 2_MiB);
        Rng grng(99 + shape);
        if (shape == 0)
            tb.addLinear(0, region, false);
        else if (shape == 1)
            tb.addStrided(0, 64, 4096, region / 4096, false);
        else
            tb.addGather(0, region, region / 64, 4, false, grng);
        dram::Trace trace;
        buildS += medianSeconds([&] { trace = tb.build(); }, 1, 5);
        dram::RunStats stats;
        runS += medianSeconds(
            [&] {
                dram::Stack st(hmc);
                stats = st.run(trace);
            },
            1, 5);
        reqs += static_cast<double>(trace.requests.size());
        hits += stats.rowHits;
        misses += stats.rowMisses;
    }
    out.emplace_back("dram.build.ns_per_req", buildS / reqs * 1e9);
    out.emplace_back("dram.run.ns_per_req", runS / reqs * 1e9);
    out.emplace_back("dram.row_hit_rate",
                     static_cast<double>(hits) /
                         static_cast<double>(hits + misses));
    if (!std::isfinite(static_cast<double>(sink.real()) + fsink))
        std::fprintf(stderr, "perfbench: probe sink not finite\n");
    return out;
}

// --- the run ---------------------------------------------------------

struct Phase
{
    bool traced = false;
    unsigned clients = 1; //!< caller threads
    double seconds = 0.0;
    std::uint64_t passes = 0;
    std::vector<UnitRecord> units;
    std::uint64_t probes = 0;
    std::uint64_t probesFailed = 0;
    std::vector<std::vector<std::pair<std::string, double>>> counters;
    std::vector<std::string> modelInputs; //!< of the first pass
    DispatchTotals dispatch;
};

std::uint64_t
modeledDigest(const std::vector<std::vector<double>> &m)
{
    std::uint64_t h = kFnvOffset;
    for (const auto &slot : m)
        h = fnv1a(h, slot.data(), slot.size() * sizeof(double));
    return h;
}

class Runner
{
  public:
    Runner(Workload &w, std::vector<std::string> &failures)
        : w_(w), failures_(failures)
    {
    }

    Phase
    run(double seconds, std::vector<SpanLog> *logs)
    {
        Phase ph;
        ph.traced = logs != nullptr;
        ph.clients = w_.clients();
        const DispatchTotals d0 = w_.dispatchTotals();
        const std::int64_t t0 = nowNs();
        do {
            Pass p;
            w_.pass(p, logs);
            check(p);
            if (ph.passes == 0)
                ph.modelInputs = p.modelInputs;
            ph.passes++;
            ph.units.insert(ph.units.end(), p.units.begin(), p.units.end());
            ph.probes += p.probes;
            ph.probesFailed += p.probesFailed;
            if (ph.traced)
                ph.counters.push_back(p.counters);
        } while (secondsSince(t0) < seconds);
        ph.seconds = secondsSince(t0);
        ph.dispatch = w_.dispatchTotals() - d0;
        return ph;
    }

    const std::vector<std::vector<double>> &reference() const
    {
        return ref_;
    }

  private:
    void
    check(const Pass &p)
    {
        failures_.insert(failures_.end(), p.failures.begin(),
                         p.failures.end());
        if (p.modeled.size() != w_.slots()) {
            failures_.push_back("pass produced the wrong number of "
                                "modeled slots");
            return;
        }
        if (ref_.empty()) {
            ref_ = p.modeled;
            return;
        }
        if (!w_.modeledRepeats())
            return;
        for (std::size_t i = 0; i < ref_.size(); ++i)
            if (p.modeled[i].size() != ref_[i].size() ||
                std::memcmp(p.modeled[i].data(), ref_[i].data(),
                            ref_[i].size() * sizeof(double)) != 0) {
                failures_.push_back("modeled numbers of slot " +
                                    std::to_string(i) +
                                    " differ from the first pass");
                return;
            }
    }

    Workload &w_;
    std::vector<std::string> &failures_;
    std::vector<std::vector<double>> ref_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    if (name == "figures")
        return std::make_unique<Figures>(seed, smoke);
    if (name == "stap")
        return std::make_unique<Stap>(seed, smoke);
    if (name == "tenants")
        return std::make_unique<Tenants>(seed, smoke);
    return nullptr;
}

void
printPhase(const Phase &ph)
{
    std::printf("{\"traced\": %s, \"clients\": %u, \"seconds\": %s, "
                "\"passes\": %llu, "
                "\"probes\": %llu, \"probes_failed\": %llu, "
                "\"unit_kind\": [",
                ph.traced ? "true" : "false", ph.clients,
                num(ph.seconds).c_str(),
                static_cast<unsigned long long>(ph.passes),
                static_cast<unsigned long long>(ph.probes),
                static_cast<unsigned long long>(ph.probesFailed));
    for (std::size_t i = 0; i < ph.units.size(); ++i)
        std::printf("%s%d", i ? ", " : "", ph.units[i].kind);
    std::printf("], \"unit_ms\": [");
    for (std::size_t i = 0; i < ph.units.size(); ++i)
        std::printf("%s%s", i ? ", " : "", num(ph.units[i].ms).c_str());
    std::printf("], \"unit_ok\": [");
    for (std::size_t i = 0; i < ph.units.size(); ++i)
        std::printf("%s%d", i ? ", " : "", ph.units[i].ok ? 1 : 0);
    std::printf("], \"solo_ms\": [");
    for (std::size_t i = 0; i < ph.units.size(); ++i)
        std::printf("%s%s", i ? ", " : "",
                    num(ph.units[i].soloMs).c_str());
    std::printf("], \"counters\": [");
    for (std::size_t i = 0; i < ph.counters.size(); ++i) {
        std::printf("%s{", i ? ", " : "");
        for (std::size_t j = 0; j < ph.counters[i].size(); ++j)
            std::printf("%s%s: %s", j ? ", " : "",
                        quote(ph.counters[i][j].first).c_str(),
                        num(ph.counters[i][j].second).c_str());
        std::printf("}");
    }
    std::printf("], \"model_inputs\": [");
    for (std::size_t i = 0; i < ph.modelInputs.size(); ++i)
        std::printf("%s%s", i ? ", " : "",
                    quote(ph.modelInputs[i]).c_str());
    std::printf("], \"dispatch\": {\"calls\": %s, \"offloaded\": %s, "
                "\"fallbacks\": {",
                num(ph.dispatch.calls).c_str(),
                num(ph.dispatch.offloaded).c_str());
    for (int r = 1; r < static_cast<int>(dispatch::FallbackReason::kCount);
         ++r)
        std::printf("%s%s: %s", r > 1 ? ", " : "",
                    quote(dispatch::name(
                              static_cast<dispatch::FallbackReason>(r)))
                        .c_str(),
                    num(ph.dispatch.fallbackBy[r]).c_str());
    std::printf("}}}");
}

void
printSpans(const std::vector<SpanLog> &logs)
{
    std::printf("{\"names\": [");
    for (std::size_t i = 0; i < std::size(kSpanNames); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", kSpanNames[i]);
    // One flat list; a parent index refers to this list.
    std::printf("], \"list\": [");
    bool first = true;
    std::int64_t offset = 0;
    for (const SpanLog &log : logs) {
        for (const Span &s : log.spans) {
            std::printf("%s[%d, %lld, %lld, %lld, %d]", first ? "" : ", ",
                        s.name, static_cast<long long>(s.start),
                        static_cast<long long>(s.end),
                        static_cast<long long>(
                            s.parent < 0 ? -1 : s.parent + offset),
                        s.unit);
            first = false;
        }
        offset += static_cast<std::int64_t>(log.spans.size());
    }
    std::printf("]}");
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "figures|stap|tenants --seed N --seconds S --trace 0|1 "
                 "[--smoke]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0' || val.empty() || val[0] == '-')
                return usage("--seed must be a non-negative integer");
        } else if (arg == "--seconds") {
            seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(seconds >= 0.0 && seconds <= 3600.0))
                return usage("--seconds must be in [0, 3600]");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return usage("--trace must be 0 or 1");
            trace = val == "1";
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (seconds < 0.0 || trace < 0)
        return usage("--seconds and --trace are required");

    // Kernels run on their caller's thread. With the pool at nproc
    // threads, STAP's 42x42 BLAS-3 calls fan out below their break-even
    // size: on a 4-vCPU AVX-512 x86-64 VM the pipeline ran 10-15%
    // slower and its unit times spread about twice as wide. tenants
    // keeps one thread per client, so 4 clients use at most 4 cores.
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    kernelTuning().numThreads = 1;

    // Set-up, five times; the last one's objects run the timed phases.
    std::vector<double> setupS;
    std::unique_ptr<Workload> w;
    for (int rep = 0; rep < 5; ++rep) {
        w.reset();
        const std::int64_t t0 = nowNs();
        w = makeWorkload(workload, seed, smoke);
        if (w == nullptr)
            return usage(("unknown workload '" + workload + "'").c_str());
        w->warmUp();
        setupS.push_back(secondsSince(t0));
    }
    auto *tenants = dynamic_cast<Tenants *>(w.get());
    if (tenants != nullptr)
        tenants->runOracles(); // not part of set-up time

    std::vector<std::string> failures;
    Runner runner(*w, failures);
    std::vector<Phase> phases;
    std::vector<SpanLog> logs(w->clients());
    std::vector<std::pair<std::string, double>> probes;
    if (trace == 0) {
        phases.push_back(runner.run(seconds, nullptr));
    } else {
        phases.push_back(runner.run(seconds / 2, nullptr));
        phases.push_back(runner.run(seconds / 2, &logs));
        if (tenants != nullptr) {
            tenants->setThreads(1);
            phases.push_back(runner.run(seconds / 4, nullptr));
        }
        probes = runProbes(smoke);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::vector<std::vector<double>> ref = runner.reference();
    double modeledS = 0.0, modeledJ = 0.0;
    for (const auto &slot : ref) {
        modeledS += slot[0];
        modeledJ += slot[1];
    }

    std::printf("{\"workload\": %s, \"seed\": %llu, \"smoke\": %s, ",
                quote(workload).c_str(),
                static_cast<unsigned long long>(seed),
                smoke ? "true" : "false");
    std::printf("\"config\": {\"machine\": %s, \"simd_detected\": %s, "
                "\"simd_active\": %s, \"kernel_threads\": %d, "
                "\"nproc\": %u, \"client_threads\": %u, "
                "\"build_type\": %s, \"cxx_flags\": %s, "
                "\"layers\": %s}, ",
                quote(hwmodel::activeMachineName()).c_str(),
                quote(simd::name(simd::detectedLevel())).c_str(),
                quote(simd::name(simd::activeLevel())).c_str(),
                kernelTuning().numThreads, nproc, w->clients(),
                quote(PERFBENCH_BUILD_TYPE).c_str(),
                quote(PERFBENCH_CXX_FLAGS).c_str(), w->layers().c_str());
    std::printf("\"setup_s\": [");
    for (std::size_t i = 0; i < setupS.size(); ++i)
        std::printf("%s%s", i ? ", " : "", num(setupS[i]).c_str());
    std::printf("], \"phases\": [");
    for (std::size_t i = 0; i < phases.size(); ++i) {
        std::printf("%s", i ? ", " : "");
        printPhase(phases[i]);
    }
    std::printf("], \"modeled\": {\"s\": %s, \"j\": %s, \"digest\": "
                "\"%s\"}, \"paper\": [",
                num(modeledS).c_str(), num(modeledJ).c_str(),
                hex64(modeledDigest(ref)).c_str());
    if (!ref.empty() && failures.empty()) {
        const auto ratios = w->paperRatios(ref);
        for (std::size_t i = 0; i < ratios.size(); ++i)
            std::printf("%s{\"name\": %s, \"ours\": %s, \"paper\": %s}",
                        i ? ", " : "",
                        quote(std::get<0>(ratios[i])).c_str(),
                        num(std::get<1>(ratios[i])).c_str(),
                        num(std::get<2>(ratios[i])).c_str());
    }
    std::printf("], \"failures\": [");
    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        std::printf("%s%s", i ? ", " : "", quote(failures[i]).c_str());
    std::printf("], \"failure_count\": %zu, \"probes\": {",
                failures.size());
    for (std::size_t i = 0; i < probes.size(); ++i)
        std::printf("%s%s: %s", i ? ", " : "",
                    quote(probes[i].first).c_str(),
                    num(probes[i].second).c_str());
    std::printf("}, \"peak_rss_kib\": %ld, \"spans\": ", ru.ru_maxrss);
    printSpans(trace == 1 ? logs : std::vector<SpanLog>{});
    std::printf("}\n");
    return 0;
}

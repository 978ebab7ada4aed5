/**
 * @file
 * Ablation: multi-tenant sessions over one shared runtime
 * (docs/SESSIONS.md).
 *
 * Sweeps clients x offload policy. Each cell opens N sessions over one
 * shared MealibRuntime and drives them through a deterministic
 * single-thread round-robin: every round, each client in turn binds
 * its session and issues one batch of MKL-signature calls (saxpy +
 * sdot on its own arena-resident vectors) that route through its
 * private dispatcher. The round-robin keeps the JSON bit-reproducible
 * — true thread contention is exercised by session_test and
 * `mealib-run --clients=N`, which verify against solo digests; this
 * bench measures how the shared stack divides between tenants.
 *
 * Reported per cell: goodput (dispatched calls per modeled second on
 * the shared stack), Jain fairness over the per-session ledger
 * seconds, and the ledger-sum-vs-aggregate-accounting residual that
 * must stay at zero.
 *
 * Usage: ablation_multitenant [--quick] [--seed=S] [--json=PATH]
 *                             [--check]
 *
 * --check exits non-zero when a functional digest diverges between
 * any two cells, when the per-session ledgers stop summing to the
 * aggregate accounting (relative 1e-9), or when fairness drops below
 * 0.999 (the round-robin hands every client identical work, so the
 * ledger split must be near-perfectly even). CI runs this.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "minimkl/compat.hh"
#include "runtime/runtime.hh"
#include "session/session.hh"

using namespace mealib;

namespace {

/** FNV-1a over a byte range, for output-identity checks. */
std::uint64_t
digestBytes(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

struct Sample
{
    unsigned clients;
    std::string policy;
    std::uint64_t calls;
    double totalS;
    double totalJ;
    double goodputCallsPerS; //!< calls per modeled shared-stack second
    double jainFairness;     //!< over per-session ledger seconds
    double minClientS;
    double maxClientS;
    double ledgerResidual; //!< |sum(sessions) - aggregate| / aggregate
    bool crossClientDiverged = false;
    std::uint64_t digest;
};

/** Jain's index over @p xs; 1.0 for an all-zero (perfectly idle) set. */
double
jain(const std::vector<double> &xs)
{
    double sum = 0.0, sq = 0.0;
    for (double x : xs) {
        sum += x;
        sq += x * x;
    }
    if (sq == 0.0)
        return 1.0;
    return sum * sum / (static_cast<double>(xs.size()) * sq);
}

Sample
runCell(unsigned clients, const std::string &policy, unsigned rounds,
        std::uint64_t seed)
{
    constexpr std::int64_t kN = 16384;
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    cfg.numStacks = 2;
    runtime::MealibRuntime rt(cfg);

    SessionOptions sopts;
    sopts.policy = policy;
    std::vector<std::unique_ptr<Session>> sessions;
    for (unsigned i = 0; i < clients; ++i)
        sessions.push_back(std::make_unique<Session>(rt, sopts));

    // Per-client vectors live in the shared arena so accel decisions
    // are COMP-mappable; every client gets the SAME seed, so every
    // client must end with the SAME bytes.
    struct Client
    {
        float *x, *y;
        float dot = 0.0f;
    };
    std::vector<Client> cl(clients);
    for (unsigned i = 0; i < clients; ++i) {
        cl[i].x = static_cast<float *>(rt.memAlloc(kN * 4));
        cl[i].y = static_cast<float *>(rt.memAlloc(kN * 4));
        Rng rng(seed ^ 0x77ull);
        for (std::int64_t k = 0; k < kN; ++k) {
            cl[i].x[k] = rng.uniform(-1.0f, 1.0f);
            cl[i].y[k] = rng.uniform(-1.0f, 1.0f);
        }
        rt.noteHostWrite(cl[i].x, kN * 4);
        rt.noteHostWrite(cl[i].y, kN * 4);
    }

    // Deterministic round-robin: one batch per client per round.
    for (unsigned r = 0; r < rounds; ++r)
        for (unsigned i = 0; i < clients; ++i) {
            SessionBinding bound = sessions[i]->bind();
            const float a =
                0.125f + 0.0625f * static_cast<float>(r % 8);
            cblas_saxpy(static_cast<int>(kN), a, cl[i].x, 1, cl[i].y,
                        1);
            cl[i].dot = cblas_sdot(static_cast<int>(kN), cl[i].x, 1,
                                   cl[i].y, 1);
        }
    for (auto &s : sessions)
        s->sync();
    rt.waitAll();

    Sample smp{};
    smp.clients = clients;
    smp.policy = policy;
    smp.calls = static_cast<std::uint64_t>(clients) * rounds * 2;

    std::uint64_t digest = 1469598103934665603ull;
    std::vector<double> perClientS;
    Cost sum;
    for (unsigned i = 0; i < clients; ++i) {
        digest = digestBytes(digest, cl[i].y,
                             static_cast<std::size_t>(kN) * 4);
        digest = digestBytes(digest, &cl[i].dot, sizeof(float));
        const Cost c = sessions[i]->ledger().total();
        perClientS.push_back(c.seconds);
        sum += c;
    }
    // Same seed, same rounds: client 0's bytes are the oracle for all.
    for (unsigned i = 1; i < clients; ++i)
        if (std::memcmp(cl[i].y, cl[0].y,
                        static_cast<std::size_t>(kN) * 4) != 0)
            smp.crossClientDiverged = true;

    const Cost agg = rt.accounting().total();
    smp.digest = digest;
    smp.totalS = agg.seconds;
    smp.totalJ = agg.joules;
    smp.goodputCallsPerS =
        agg.seconds > 0.0
            ? static_cast<double>(smp.calls) / agg.seconds
            : 0.0;
    smp.jainFairness = jain(perClientS);
    smp.minClientS = perClientS.empty() ? 0.0 : perClientS.front();
    smp.maxClientS = smp.minClientS;
    for (double s : perClientS) {
        smp.minClientS = std::min(smp.minClientS, s);
        smp.maxClientS = std::max(smp.maxClientS, s);
    }
    smp.ledgerResidual =
        agg.seconds > 0.0
            ? std::abs(sum.seconds - agg.seconds) / agg.seconds
            : std::abs(sum.seconds);

    for (unsigned i = 0; i < clients; ++i) {
        rt.memFree(cl[i].x);
        rt.memFree(cl[i].y);
    }
    return smp;
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagTable table("Clients x offload policy on one runtime.");
    const Flag &quickRow =
        table.add({"quick", FlagType::Bool, "", "a reduced sweep for CI"});
    const Flag &checkRow = table.add(
        {"check", FlagType::Bool, "", "exit 1 unless the gates hold"});
    const Flag &seedRow = table.add(
        {"seed", FlagType::Int, "0", "workload data seed", 0, HUGE_VAL});
    const Flag &jsonRow = table.add({"json", FlagType::String,
                                     "BENCH_multitenant.json", "JSON path"});
    const Flags flags = table.parseOrExit(argc, argv);
    const bool quick = flags.on(quickRow);
    const bool check = flags.on(checkRow);
    const auto seed = static_cast<std::uint64_t>(flags.integer(seedRow));
    const std::string jsonPath = flags.text(jsonRow);

    bench::banner(
        "ablation: clients x offload policy on one shared runtime "
        "(docs/SESSIONS.md)",
        "N sessions share the accelerator stack without changing "
        "anyone's numbers: identical per-client outputs, per-session "
        "ledgers that sum exactly to the aggregate accounting, and an "
        "even split of the modeled time");

    const std::vector<unsigned> clientCounts =
        quick ? std::vector<unsigned>{1, 2}
              : std::vector<unsigned>{1, 2, 4, 8};
    const std::vector<std::string> policies{"host", "accel",
                                            "crossover"};
    const unsigned rounds = quick ? 4 : 8;

    std::vector<Sample> samples;
    for (unsigned clients : clientCounts)
        for (const std::string &policy : policies)
            samples.push_back(runCell(clients, policy, rounds, seed));

    bench::Table t({"clients", "policy", "calls", "goodput (calls/ms)",
                    "fairness", "client min/max (us)", "total (us)",
                    "residual"});
    for (const Sample &s : samples)
        t.row({std::to_string(s.clients), s.policy,
               std::to_string(s.calls),
               bench::fmt("%.2f", s.goodputCallsPerS / 1e3),
               bench::fmt("%.6f", s.jainFairness),
               bench::fmt("%.2f", s.minClientS * 1e6) + " / " +
                   bench::fmt("%.2f", s.maxClientS * 1e6),
               bench::fmt("%.2f", s.totalS * 1e6),
               bench::fmt("%.2e", s.ledgerResidual)});
    t.print();

    bench::JsonWriter json;
    json.meta("bench", "ablation_multitenant");
    json.meta("experiment",
              "clients x offload policy on one shared runtime "
              "(docs/SESSIONS.md)");
    json.meta("quick", quick);
    json.meta("rounds", static_cast<double>(rounds));
    for (const Sample &s : samples) {
        json.beginRecord();
        json.field("clients", static_cast<double>(s.clients));
        json.field("policy", s.policy);
        json.field("calls", static_cast<double>(s.calls));
        json.field("total_s", s.totalS);
        json.field("total_j", s.totalJ);
        json.field("goodput_calls_per_s", s.goodputCallsPerS);
        json.field("jain_fairness", s.jainFairness);
        json.field("min_client_s", s.minClientS);
        json.field("max_client_s", s.maxClientS);
        json.field("ledger_residual", s.ledgerResidual);
        json.field("cross_client_diverged", s.crossClientDiverged);
        json.field("digest", hex64(s.digest));
        json.endRecord();
    }
    if (!json.writeFile(jsonPath.c_str())) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                samples.size());

    if (!check)
        return 0;

    // --- acceptance gates (CI) -----------------------------------------
    int rc = 0;
    for (const Sample &s : samples) {
        if (s.crossClientDiverged) {
            std::fprintf(
                stderr,
                "FAIL: cross-client output divergence at clients=%u "
                "policy=%s\n",
                s.clients, s.policy.c_str());
            rc = 1;
        }
        if (s.ledgerResidual > 1e-9) {
            std::fprintf(stderr,
                         "FAIL: ledger sum != aggregate at clients=%u "
                         "policy=%s (residual %.3e)\n",
                         s.clients, s.policy.c_str(),
                         s.ledgerResidual);
            rc = 1;
        }
        if (s.jainFairness < 0.999) {
            std::fprintf(stderr,
                         "FAIL: fairness %.6f below 0.999 at "
                         "clients=%u policy=%s\n",
                         s.jainFairness, s.clients, s.policy.c_str());
            rc = 1;
        }
    }
    // The functional bytes must also agree ACROSS policies: host and
    // accel kernels are bit-identical (kernel parity), so for a given
    // client count all three policies share one digest.
    for (unsigned clients : clientCounts) {
        std::uint64_t d = 0;
        bool first = true;
        for (const Sample &s : samples) {
            if (s.clients != clients)
                continue;
            if (first) {
                d = s.digest;
                first = false;
            } else if (s.digest != d) {
                std::fprintf(stderr,
                             "FAIL: digest diverges across policies "
                             "at clients=%u (%s)\n",
                             clients, s.policy.c_str());
                rc = 1;
            }
        }
    }
    if (rc == 0)
        std::printf("check: outputs identical, ledgers exact, "
                    "fairness >= 0.999\n");
    return rc;
}

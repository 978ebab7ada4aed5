// Multi-tenant session contexts (docs/SESSIONS.md): thread binding,
// machine pinning, per-session ledger attribution, and concurrency
// torture — N threads in one session and N sessions side by side must
// reproduce the solo numbers bit for bit.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cg.hh"
#include "apps/sar.hh"
#include "apps/stap.hh"
#include "common/logging.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/models.hh"
#include "dispatch/ops.hh"
#include "hwmodel/profile.hh"
#include "minimkl/compat.hh"
#include "runtime/runtime.hh"
#include "session/session.hh"

namespace mealib {
namespace {

runtime::RuntimeConfig
testConfig()
{
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 256_MiB;
    cfg.numStacks = 2;
    return cfg;
}

// --- binding & routing -------------------------------------------------

TEST(SessionBinding, RoutesDispatchAndRestores)
{
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    EXPECT_FALSE(dispatch::hasBoundDispatcher());
    {
        SessionBinding bound = s.bind();
        EXPECT_TRUE(dispatch::hasBoundDispatcher());
        EXPECT_EQ(&dispatch::currentDispatcher(), &s.dispatcher());
        EXPECT_EQ(runtime::boundSessionLedger(), &s.ledger());
    }
    EXPECT_FALSE(dispatch::hasBoundDispatcher());
    EXPECT_EQ(runtime::boundSessionLedger(), nullptr);
    EXPECT_EQ(&dispatch::currentDispatcher(),
              &dispatch::Dispatcher::global());
}

TEST(SessionBinding, BindingsNest)
{
    runtime::MealibRuntime rt(testConfig());
    Session outer(rt);
    Session inner(rt);
    SessionBinding b1 = outer.bind();
    {
        SessionBinding b2 = inner.bind();
        EXPECT_EQ(&dispatch::currentDispatcher(), &inner.dispatcher());
    }
    EXPECT_EQ(&dispatch::currentDispatcher(), &outer.dispatcher());
}

TEST(SessionBinding, CompatCallsUseTheBoundDispatcher)
{
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    std::vector<float> x(1024, 1.0f), y(1024, 2.0f);
    {
        SessionBinding bound = s.bind();
        cblas_saxpy(1024, 0.5f, x.data(), 1, y.data(), 1);
    }
    // The MKL-signature call above went through the session's private
    // dispatcher, not the process-global one.
    EXPECT_EQ(s.dispatcher().snapshot().totalCalls(), 1u);
    EXPECT_FLOAT_EQ(y[0], 2.5f);
}

// --- machine pinning ---------------------------------------------------

TEST(SessionMachine, SetActiveMachineRefusesWhileLive)
{
    const std::string before = hwmodel::activeMachineName();
    runtime::MealibRuntime rt(testConfig());
    {
        Session s(rt);
        Status st = hwmodel::setActiveMachine("xeonphi5110p");
        EXPECT_FALSE(st.ok());
        EXPECT_EQ(st.code(), ErrorCode::InvalidArgument);
        EXPECT_EQ(&s.machine(), &hwmodel::activeProfile());
    }
    // The last session is gone: switching works again.
    EXPECT_TRUE(hwmodel::setActiveMachine("xeonphi5110p").ok());
    EXPECT_TRUE(hwmodel::setActiveMachine(before).ok());
}

// --- dispatcher global() -----------------------------------------------

TEST(SessionDispatch, GlobalIsStableAcrossSessions)
{
    dispatch::Dispatcher *before = &dispatch::Dispatcher::global();
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    SessionBinding bound = s.bind();
    EXPECT_EQ(&dispatch::Dispatcher::global(), before);
}

TEST(SessionDispatch, CostModelPricesTheFusionWindow)
{
    // A session with window 4 executes its offloads fused, four per
    // flush + handshake, so its cost model must price them that way.
    // At n = 8192 the amortized invocation flips the crossover from
    // the host to the accelerator.
    const std::int64_t n = 8192;
    std::vector<float> hx(n), hy(n);
    const dispatch::OpDesc probe =
        dispatch::lowerSaxpy(n, 0.5f, hx.data(), 1, hy.data(), 1);
    dispatch::RooflineCostModel fused;
    fused.setFusionWindow(4);
    ASSERT_LT(fused.accelSeconds(probe), fused.hostSeconds(probe));
    const dispatch::RooflineCostModel unfused;
    ASSERT_GT(unfused.accelSeconds(probe), unfused.hostSeconds(probe));

    runtime::MealibRuntime rt(testConfig());
    SessionOptions opts;
    opts.policy = "crossover";
    opts.fusionWindow = 4;
    Session s(rt, opts);
    auto *x = static_cast<float *>(rt.memAlloc(n * sizeof(float)));
    auto *y = static_cast<float *>(rt.memAlloc(n * sizeof(float)));
    std::fill(x, x + n, 1.0f);
    std::fill(y, y + n, 2.0f);
    {
        SessionBinding bound = s.bind();
        cblas_saxpy(static_cast<int>(n), 0.5f, x, 1, y, 1);
    }
    s.sync();
    EXPECT_EQ(s.dispatcher().snapshot().totalAccelDecisions(), 1u);
    EXPECT_EQ(s.dispatcher().snapshot().totalOffloaded(), 1u);
    EXPECT_FLOAT_EQ(y[n - 1], 2.5f);
    rt.memFree(x);
    rt.memFree(y);
}

// --- ledger attribution ------------------------------------------------

TEST(SessionLedger, SingleSessionMirrorsAccountingExactly)
{
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    {
        SessionBinding bound = s.bind();
        apps::CgOptions opts;
        opts.exclusive = false;
        mkl::CsrMatrix a = apps::cgTestMatrix(400, 9);
        std::vector<float> b(400, 1.0f);
        apps::solveCgMealib(a, b, rt, opts);
    }
    const Cost led = s.ledger().total();
    const Cost agg = rt.accounting().total();
    // One session did everything: its ledger IS the aggregate.
    EXPECT_EQ(led.seconds, agg.seconds);
    EXPECT_EQ(led.joules, agg.joules);
    EXPECT_GT(led.seconds, 0.0);
}

TEST(SessionLedger, NSessionLedgersSumToAggregate)
{
    constexpr unsigned kClients = 4;
    runtime::MealibRuntime rt(testConfig());
    std::vector<std::unique_ptr<Session>> sessions;
    for (unsigned i = 0; i < kClients; ++i)
        sessions.push_back(std::make_unique<Session>(rt));
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            SessionBinding bound = sessions[i]->bind();
            apps::CgOptions opts;
            opts.exclusive = false;
            mkl::CsrMatrix a = apps::cgTestMatrix(300, i + 1);
            std::vector<float> b(300, 1.0f);
            apps::solveCgMealib(a, b, rt, opts);
        });
    for (auto &t : threads)
        t.join();
    rt.waitAll();
    Cost sum;
    for (auto &s : sessions)
        sum += s->ledger().total();
    const Cost agg = rt.accounting().total();
    EXPECT_GT(agg.seconds, 0.0);
    EXPECT_NEAR(sum.seconds, agg.seconds,
                1e-9 * std::abs(agg.seconds));
    EXPECT_NEAR(sum.joules, agg.joules, 1e-9 * std::abs(agg.joules));
}

// --- concurrency torture -----------------------------------------------

std::vector<std::complex<float>>
soloStap()
{
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    SessionBinding bound = s.bind();
    return apps::runStapMealib(apps::StapParams::smallSet(), rt,
                               /*exclusive=*/false)
        .prods;
}

TEST(SessionTorture, NSessionsMatchSoloBitForBit)
{
    constexpr unsigned kClients = 4;
    const std::vector<std::complex<float>> solo = soloStap();
    runtime::MealibRuntime rt(testConfig());
    std::vector<std::unique_ptr<Session>> sessions;
    for (unsigned i = 0; i < kClients; ++i)
        sessions.push_back(std::make_unique<Session>(rt));
    std::vector<std::vector<std::complex<float>>> out(kClients);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            SessionBinding bound = sessions[i]->bind();
            out[i] = apps::runStapMealib(apps::StapParams::smallSet(),
                                         rt, /*exclusive=*/false)
                         .prods;
        });
    for (auto &t : threads)
        t.join();
    for (unsigned i = 0; i < kClients; ++i) {
        ASSERT_EQ(out[i].size(), solo.size()) << "client " << i;
        EXPECT_EQ(std::memcmp(out[i].data(), solo.data(),
                              solo.size() * sizeof(solo[0])),
                  0)
            << "client " << i;
    }
}

TEST(SessionTorture, NThreadsOneSessionMatchSolo)
{
    constexpr unsigned kThreads = 4;
    const std::vector<std::complex<float>> solo = soloStap();
    runtime::MealibRuntime rt(testConfig());
    Session s(rt);
    std::vector<std::vector<std::complex<float>>> out(kThreads);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i)
        threads.emplace_back([&, i] {
            // One session bound on several threads at once: its
            // dispatcher, window and ledger are internally locked.
            SessionBinding bound = s.bind();
            out[i] = apps::runStapMealib(apps::StapParams::smallSet(),
                                         rt, /*exclusive=*/false)
                         .prods;
        });
    for (auto &t : threads)
        t.join();
    for (unsigned i = 0; i < kThreads; ++i)
        EXPECT_EQ(std::memcmp(out[i].data(), solo.data(),
                              solo.size() * sizeof(solo[0])),
                  0)
            << "thread " << i;
    // Everything landed in the one session: exact mirror still holds.
    const Cost led = s.ledger().total();
    const Cost agg = rt.accounting().total();
    EXPECT_NEAR(led.seconds, agg.seconds,
                1e-9 * std::abs(agg.seconds));
}

TEST(SessionTorture, DeterministicReductionsUnderContention)
{
    // sdot reduces through the fixed-chunk deterministic tree; its
    // result must be bit-identical no matter how many other client
    // threads hammer the kernel engine at the same time.
    constexpr int kN = 1 << 16;
    std::vector<float> x(kN), y(kN);
    for (int i = 0; i < kN; ++i) {
        x[static_cast<std::size_t>(i)] =
            std::sin(0.01 * static_cast<double>(i));
        y[static_cast<std::size_t>(i)] =
            std::cos(0.013 * static_cast<double>(i));
    }
    const float solo = cblas_sdot(kN, x.data(), 1, y.data(), 1);
    constexpr unsigned kThreads = 8;
    std::vector<float> got(kThreads, 0.0f);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            float acc = solo;
            for (int rep = 0; rep < 16; ++rep) {
                const float v =
                    cblas_sdot(kN, x.data(), 1, y.data(), 1);
                acc = (v == acc) ? v : std::nanf("");
            }
            got[t] = acc;
        });
    for (auto &th : threads)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_FALSE(std::isnan(got[t])) << "thread " << t;
        EXPECT_EQ(std::memcmp(&got[t], &solo, sizeof(float)), 0)
            << "thread " << t;
    }
}

TEST(SessionTorture, MixedAppsAcrossSessions)
{
    // STAP, SAR and CG side by side on one runtime: every client's
    // output matches its solo oracle.
    runtime::RuntimeConfig cfg = testConfig();
    std::vector<std::complex<float>> stap_solo = soloStap();
    std::vector<mkl::cfloat> sar_solo;
    std::vector<float> cg_solo;
    {
        runtime::MealibRuntime solo(cfg);
        Session s(solo);
        SessionBinding bound = s.bind();
        sar_solo = apps::runSarChain(64, true, solo, 7).image;
        apps::CgOptions opts;
        opts.exclusive = false;
        mkl::CsrMatrix a = apps::cgTestMatrix(500, 2);
        std::vector<float> b(500, 1.0f);
        cg_solo = apps::solveCgMealib(a, b, solo, opts).x;
    }
    runtime::MealibRuntime rt(cfg);
    Session s0(rt), s1(rt), s2(rt);
    std::vector<std::complex<float>> stap_out;
    std::vector<mkl::cfloat> sar_out;
    std::vector<float> cg_out;
    std::thread t0([&] {
        SessionBinding bound = s0.bind();
        stap_out = apps::runStapMealib(apps::StapParams::smallSet(),
                                       rt, /*exclusive=*/false)
                       .prods;
    });
    std::thread t1([&] {
        SessionBinding bound = s1.bind();
        sar_out = apps::runSarChain(64, true, rt, 7).image;
    });
    std::thread t2([&] {
        SessionBinding bound = s2.bind();
        apps::CgOptions opts;
        opts.exclusive = false;
        mkl::CsrMatrix a = apps::cgTestMatrix(500, 2);
        std::vector<float> b(500, 1.0f);
        cg_out = apps::solveCgMealib(a, b, rt, opts).x;
    });
    t0.join();
    t1.join();
    t2.join();
    EXPECT_EQ(std::memcmp(stap_out.data(), stap_solo.data(),
                          stap_solo.size() * sizeof(stap_solo[0])),
              0);
    EXPECT_EQ(std::memcmp(sar_out.data(), sar_solo.data(),
                          sar_solo.size() * sizeof(sar_solo[0])),
              0);
    EXPECT_EQ(std::memcmp(cg_out.data(), cg_solo.data(),
                          cg_solo.size() * sizeof(float)),
              0);
}

// --- cross-layer accounting pin ---------------------------------------

TEST(CrossLayer, EveryLayerOnKeepsOneConsistentLedger)
{
    // STAP, SAR and CG on one 2-stack runtime with residency, integrity,
    // checkpoints every 4 COMPs and faults recovered by host fallback,
    // split over two sessions (fusion windows 1 and 4). The layers are
    // each pinned alone elsewhere; this pins them together.
    const apps::StapParams p = apps::StapParams::smallSet();
    mkl::CsrMatrix a = apps::cgTestMatrix(500, 3);
    std::vector<float> b(500, 1.0f);
    apps::CgOptions opts;
    opts.exclusive = false;
    std::vector<mkl::cfloat> stap_solo, sar_solo;
    std::vector<float> cg_solo;
    {
        runtime::MealibRuntime solo(testConfig());
        stap_solo = apps::runStapMealib(p, solo).prods;
        sar_solo = apps::runSarChain(64, false, solo, 7).image;
        cg_solo = apps::solveCgMealib(a, b, solo, opts).x;
    }

    runtime::RuntimeConfig cfg = testConfig();
    cfg.residency.enabled = true;
    cfg.integrity.verifyTransfers = true;
    cfg.checkpoint.intervalComps = 4;
    cfg.fault.seed = 5;
    cfg.fault.eccCorrectableRate = 0.1;
    cfg.fault.eccUncorrectableRate = 0.1;
    cfg.fault.linkCrcRate = 0.1;
    cfg.fault.hangRate = 0.1;
    cfg.fault.computeTransientRate = 0.1;
    cfg.retry.hostFallback = true;
    runtime::MealibRuntime rt(cfg);
    SessionOptions one, four;
    one.policy = four.policy = "accel";
    one.fusionWindow = 1;
    four.fusionWindow = 4;
    Session s1(rt, one), s4(rt, four);

    std::vector<mkl::cfloat> stap_out, sar_hw, sar_sw;
    std::vector<float> cg_out;
    std::thread t1([&] {
        SessionBinding bound = s1.bind();
        stap_out = apps::runStapMealib(p, rt, /*exclusive=*/false).prods;
        sar_hw = apps::runSarChain(64, true, rt, 7).image;
    });
    std::thread t4([&] {
        SessionBinding bound = s4.bind();
        cg_out = apps::solveCgMealib(a, b, rt, opts).x;
        sar_sw = apps::runSarChain(64, false, rt, 7).image;
    });
    t1.join();
    t4.join();
    rt.waitAll();

    EXPECT_EQ(stap_out, stap_solo);
    EXPECT_EQ(sar_hw, sar_solo);
    EXPECT_EQ(sar_sw, sar_solo);
    EXPECT_EQ(cg_out, cg_solo);

    const runtime::RuntimeAccounting &acct = rt.accounting();
    ASSERT_GT(acct.integrity().seconds, 0.0);
    ASSERT_GT(acct.retryCount + acct.fallbackCount, 0u);
    ASSERT_GT(acct.checkpointsTaken, 0u);
    const Cost agg = acct.total();
    EXPECT_DOUBLE_EQ(rt.ledger().total().seconds, agg.seconds);
    EXPECT_DOUBLE_EQ(rt.ledger().total().joules, agg.joules);

    const Cost sum = s1.ledger().total() + s4.ledger().total();
    EXPECT_NEAR(sum.seconds, agg.seconds, 1e-9 * agg.seconds);
    EXPECT_NEAR(sum.joules, agg.joules, 1e-9 * agg.joules);

    // Component attribution partitions each ledger's joules.
    for (const EnergyLedger *l : {&rt.ledger(), &s1.ledger(), &s4.ledger()}) {
        const double j = l->total().joules;
        EXPECT_NEAR(l->energyByComponent().total(), j, 1e-12 * j);
    }
}

} // namespace
} // namespace mealib

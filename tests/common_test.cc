// Unit tests for the common substrate: logging, units, RNG, stats, the
// flag table and its environment variables.

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/cli.hh"
#include "common/parallel.hh"
#include "common/ledger.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"

namespace mealib {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("broken invariant"), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "nope"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, MessageCarriesStreamedParts)
{
    try {
        fatal("value=", 7, " name=", "x");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7 name=x");
    }
}

TEST(Units, ByteLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(4_GiB, 4ull << 30);
}

TEST(Units, FrequencyAndBandwidthLiterals)
{
    EXPECT_DOUBLE_EQ(3.5_GHz, 3.5e9);
    EXPECT_DOUBLE_EQ(25.6_GBps, 25.6e9);
    EXPECT_DOUBLE_EQ(1.0_ns, 1e-9);
    EXPECT_DOUBLE_EQ(1.0_pJ, 1e-12);
}

TEST(Units, CostComposition)
{
    Cost a{1.0, 10.0};
    Cost b{2.0, 5.0};
    Cost s = a + b;
    EXPECT_DOUBLE_EQ(s.seconds, 3.0);
    EXPECT_DOUBLE_EQ(s.joules, 15.0);

    Cost o = overlap(a, b);
    EXPECT_DOUBLE_EQ(o.seconds, 2.0);
    EXPECT_DOUBLE_EQ(o.joules, 15.0);
}

TEST(Units, CostDerivedMetrics)
{
    Cost c{2.0, 10.0};
    EXPECT_DOUBLE_EQ(c.watts(), 5.0);
    EXPECT_DOUBLE_EQ(c.edp(), 20.0);
    EXPECT_DOUBLE_EQ(Cost{}.watts(), 0.0);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BelowStaysBelow)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Stats, ScalarBasics)
{
    ScalarStat s;
    s.sample(1.0);
    s.sample(3.0);
    s.sample(5.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(Stats, EmptyScalarIsZero)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, BreakdownFractions)
{
    Breakdown b;
    b.add("host", 75.0);
    b.add("accel", 25.0);
    EXPECT_DOUBLE_EQ(b.total(), 100.0);
    EXPECT_DOUBLE_EQ(b.fraction("host"), 0.75);
    EXPECT_DOUBLE_EQ(b.get("missing"), 0.0);
}

TEST(Stats, BreakdownAccumulates)
{
    Breakdown b;
    b.add("x", 1.0);
    b.add("x", 2.0);
    EXPECT_DOUBLE_EQ(b.get("x"), 3.0);
}

/** One row of every type, two run modes, one positional. */
struct TestTable
{
    FlagTable table{"test summary", "<file>", 1, {"solo", "shared"}};
    const Flag &verbose = table.add({"verbose", FlagType::Bool, "", "x"});
    const Flag &size = table.add({"size", FlagType::Int, "42", "", 1, 1024});
    const Flag &rate =
        table.add({"rate", FlagType::Real, "2.5", "", -1.0, 10.0});
    const Flag &name = table.add({"name", FlagType::String, "dft", ""});
    const Flag &mode =
        table.add({"mode", FlagType::Choice, "a", "", 0, 0, {"a", "b"}});
    const Flag &threads =
        table.add({"threads", FlagType::IntList, "1,2", "", 1, 64});
    const Flag &peers =
        table.add(Flag{"peers", FlagType::Int, "1", "", 1, 8}.in(2));

    Flags
    parse(std::vector<const char *> args) const
    {
        args.insert(args.begin(), "prog");
        return table.parse(static_cast<int>(args.size()), args.data());
    }
};

/** Expect parsing @p args to throw InvalidArgument. */
void
expectRejected(const TestTable &t, std::vector<const char *> args)
{
    try {
        t.parse(args);
        ADD_FAILURE() << "accepted " << args.front();
    } catch (const MealibError &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument) << e.what();
    }
}

TEST(FlagTable, EveryRowTypeInBothForms)
{
    TestTable t;
    const Flags f = t.parse({"--verbose", "--size=128", "--name", "foo",
                             "--rate", "-0.5", "--mode=b", "--threads",
                             "1,4,64", "positional"});
    EXPECT_TRUE(f.on(t.verbose));
    EXPECT_EQ(f.integer(t.size), 128);
    EXPECT_DOUBLE_EQ(f.real(t.rate), -0.5); // negative, space form
    EXPECT_EQ(f.text(t.name), "foo");
    EXPECT_EQ(f.text(t.mode), "b");
    EXPECT_EQ(f.ints(t.threads), (std::vector<std::int64_t>{1, 4, 64}));
    EXPECT_FALSE(f.given(t.peers));
    ASSERT_EQ(f.positional().size(), 1u);
    EXPECT_EQ(f.positional()[0], "positional");
    EXPECT_EQ(f.program(), "prog");
}

TEST(FlagTable, DefaultsWhenAbsent)
{
    TestTable t;
    const Flags f = t.parse({});
    EXPECT_FALSE(f.on(t.verbose));
    EXPECT_FALSE(f.given(t.size));
    EXPECT_EQ(f.integer(t.size), 42);
    EXPECT_DOUBLE_EQ(f.real(t.rate), 2.5);
    EXPECT_EQ(f.text(t.name), "dft");
    EXPECT_EQ(f.text(t.mode), "a");
    EXPECT_EQ(f.ints(t.threads), (std::vector<std::int64_t>{1, 2}));
}

TEST(FlagTable, RejectsEveryInputThatWouldNotTakeEffect)
{
    TestTable t;
    expectRejected(t, {"--verbose=no"});   // a bool given a value
    expectRejected(t, {"--verbose="});
    expectRejected(t, {"--size="});        // an empty value
    expectRejected(t, {"--name="});
    expectRejected(t, {"--size"});         // no value at all
    expectRejected(t, {"--size", "--verbose"});
    expectRejected(t, {"--size=abc"});     // malformed
    expectRejected(t, {"--size=12kb"});
    expectRejected(t, {"--rate=x"});
    expectRejected(t, {"--size=0"});       // out of range
    expectRejected(t, {"--size", "-1"});
    expectRejected(t, {"--rate=nan"});
    expectRejected(t, {"--rate=11"});
    expectRejected(t, {"--threads=1,65"});
    expectRejected(t, {"--threads=1,,2"});
    expectRejected(t, {"--mode=c"});       // a bad choice
    expectRejected(t, {"--nope"});         // undeclared
    expectRejected(t, {"--size=2", "--size=3"}); // repeated
    expectRejected(t, {"one", "two"});     // a stray positional
}

TEST(FlagTable, InapplicableFlagIsRejected)
{
    TestTable t;
    const Flags f = t.parse({"--peers=3"});
    EXPECT_NO_THROW(f.requireMode(2));
    EXPECT_EQ(f.integer(t.peers), 3);
    try {
        f.requireMode(1);
        ADD_FAILURE() << "--peers accepted on a solo run";
    } catch (const MealibError &e) {
        EXPECT_NE(std::string(e.what()).find("--peers does nothing on solo"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_NO_THROW(t.parse({"--size=3"}).requireMode(1));
}

TEST(FlagTable, RangeBoundsAreInclusive)
{
    // The bound mealib-run's --clients and kernels_microbench --threads
    // declare: up to 64 client threads, never more.
    const Flag clients = Flag{"clients", FlagType::Int, "1", "", 1, 64};
    EXPECT_TRUE(clients.check("1").ok());
    EXPECT_TRUE(clients.check("64").ok());
    EXPECT_FALSE(clients.check("65").ok());
    EXPECT_FALSE(clients.check("0").ok());
    const Flag threads{"threads", FlagType::IntList, "1", "", 1, 64};
    EXPECT_FALSE(threads.check("2,65").ok());
}

TEST(FlagTable, HelpListsEveryRow)
{
    TestTable t;
    const std::string help = t.table.help("prog");
    EXPECT_NE(help.find("usage: prog <file>"), std::string::npos);
    EXPECT_NE(help.find("test summary"), std::string::npos);
    for (const char *row : {"--verbose", "--size=N", "--rate=X", "--name=S",
                            "--mode=C", "--threads=N,...", "--peers=N",
                            "--help"})
        EXPECT_NE(help.find(row), std::string::npos) << row;
    EXPECT_NE(help.find("one of a | b"), std::string::npos);
    EXPECT_NE(help.find("only on shared"), std::string::npos);
}

/** Sets (or, with nullptr, unsets) @p var for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *var, const char *value) : var_(var)
    {
        if (const char *old = std::getenv(var))
            old_ = old;
        hadOld_ = std::getenv(var) != nullptr;
        if (value != nullptr)
            ::setenv(var, value, 1);
        else
            ::unsetenv(var);
    }
    ~ScopedEnv()
    {
        if (hadOld_)
            ::setenv(var_, old_.c_str(), 1);
        else
            ::unsetenv(var_);
    }

  private:
    const char *var_;
    std::string old_;
    bool hadOld_ = false;
};

TEST(EnvFlags, UnsetOrEmptyMeansTheDefault)
{
    for (Env var : {Env::NumThreads, Env::Simd, Env::Machine,
                    Env::OffloadPolicy}) {
        const Flag &row = envFlag(var);
        {
            ScopedEnv unset(row.env.c_str(), nullptr);
            EXPECT_EQ(envValue(row), row.def) << row.env;
        }
        ScopedEnv empty(row.env.c_str(), "");
        EXPECT_EQ(envValue(row), row.def) << row.env;
    }
    ScopedEnv simd("MEALIB_SIMD", "scalar");
    EXPECT_EQ(envValue(envFlag(Env::Simd)), "scalar");
}

TEST(EnvFlags, BadValueIsInvalidArgument)
{
    const std::pair<Env, const char *> bad[] = {
        {Env::NumThreads, "abc"},    {Env::NumThreads, "0"},
        {Env::NumThreads, "100000"}, {Env::NumThreads, "4x"},
        {Env::Simd, "bogus"},        {Env::Machine, "foo"},
        {Env::OffloadPolicy, "gpu"},
    };
    for (const auto &[var, value] : bad) {
        const Flag &row = envFlag(var);
        ScopedEnv set(row.env.c_str(), value);
        try {
            envValue(row);
            ADD_FAILURE() << row.env << "=" << value << " accepted";
        } catch (const MealibError &e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
            const std::string msg = e.what();
            EXPECT_NE(msg.find(row.env), std::string::npos) << msg;
            EXPECT_NE(msg.find(value), std::string::npos) << msg;
        }
    }
    // The pool bound: kMaxWorkers workers plus the calling thread.
    ScopedEnv most("MEALIB_NUM_THREADS", "64");
    EXPECT_EQ(envValue(envFlag(Env::NumThreads)), "64");
    ScopedEnv over("MEALIB_NUM_THREADS", "65");
    EXPECT_THROW(KernelTuning::fromEnv(), MealibError);
}

TEST(EnvFlags, EveryParseChecksTheEnvironment)
{
    TestTable t;
    ScopedEnv bad("MEALIB_SIMD", "bogus");
    expectRejected(t, {});
}

TEST(Units, EnergyAndPowerLiterals)
{
    EXPECT_DOUBLE_EQ(4.0_pJ, 4.0e-12);
    EXPECT_DOUBLE_EQ(0.7_nJ, 0.7e-9);
    EXPECT_DOUBLE_EQ(55.0_mW, 0.055);
    EXPECT_DOUBLE_EQ(20.0_us, 20.0e-6);
    EXPECT_DOUBLE_EQ(1.5_ms, 1.5e-3);
    EXPECT_DOUBLE_EQ(800.0_MHz, 0.8e9);
}

TEST(Units, OverlapTakesMaxTimeAndSumsEnergy)
{
    Cost fast{1.0, 4.0};
    Cost slow{3.0, 2.0};
    Cost o = overlap(fast, slow);
    EXPECT_DOUBLE_EQ(o.seconds, 3.0);
    EXPECT_DOUBLE_EQ(o.joules, 6.0);
    // Commutative, and a zero-cost branch contributes only energy.
    Cost o2 = overlap(slow, fast);
    EXPECT_DOUBLE_EQ(o2.seconds, o.seconds);
    EXPECT_DOUBLE_EQ(o2.joules, o.joules);
    Cost o3 = overlap(fast, Cost{});
    EXPECT_DOUBLE_EQ(o3.seconds, 1.0);
    EXPECT_DOUBLE_EQ(o3.joules, 4.0);
}

TEST(Units, WattsOnZeroLengthIntervalIsZero)
{
    // A zero-length interval has no meaningful average power, even if
    // energy was booked against it (e.g. a package-idle correction).
    EXPECT_DOUBLE_EQ((Cost{0.0, 5.0}.watts()), 0.0);
    EXPECT_DOUBLE_EQ((Cost{0.0, 5.0}.edp()), 0.0);
}

TEST(Ledger, PostAccumulatesTracksAndTotal)
{
    EnergyLedger l;
    l.post("host", {1.0, 2.0}, "kernel");
    l.post("host", {0.5, 1.0}, "kernel");
    l.post("accel", {2.0, 3.0});
    EXPECT_DOUBLE_EQ(l.track("host").seconds, 1.5);
    EXPECT_DOUBLE_EQ(l.track("host").joules, 3.0);
    EXPECT_DOUBLE_EQ(l.total().seconds, 3.5);
    EXPECT_DOUBLE_EQ(l.total().joules, 6.0);
    EXPECT_DOUBLE_EQ(l.track("nope").seconds, 0.0);
    auto it = l.events().find("host/kernel");
    ASSERT_NE(it, l.events().end());
    EXPECT_EQ(it->second.count, 2u);
    EXPECT_DOUBLE_EQ(it->second.cost.joules, 3.0);
}

TEST(Ledger, AttributionNeverChangesTotal)
{
    EnergyLedger l;
    l.post("accel", {1.0, 10.0});
    Cost before = l.total();
    l.attribute("dram", 6.0);
    l.attribute("logic", 3.0);
    l.attribute("noc", 1.0);
    EXPECT_DOUBLE_EQ(l.total().seconds, before.seconds);
    EXPECT_DOUBLE_EQ(l.total().joules, before.joules);
    EXPECT_DOUBLE_EQ(l.energyByComponent().get("dram"), 6.0);
    EXPECT_DOUBLE_EQ(l.energyByComponent().get("logic"), 3.0);
}

TEST(Ledger, NotesAreZeroCostEvents)
{
    EnergyLedger l;
    l.note("dispatch/axpy/accel");
    l.note("dispatch/axpy/accel");
    EXPECT_DOUBLE_EQ(l.total().seconds, 0.0);
    EXPECT_DOUBLE_EQ(l.total().joules, 0.0);
    auto it = l.events().find("dispatch/axpy/accel");
    ASSERT_NE(it, l.events().end());
    EXPECT_EQ(it->second.count, 2u);
}

TEST(Ledger, GflopsPerWattUsesRunTotals)
{
    EnergyLedger l;
    l.post("host", {2.0, 10.0});
    l.addFlops(20e9);
    // 10 GFLOP/s at 5 W average power.
    EXPECT_DOUBLE_EQ(l.gflopsPerWatt(), 2.0);
    EXPECT_DOUBLE_EQ(l.edp(), 20.0);
    EnergyLedger empty;
    EXPECT_DOUBLE_EQ(empty.gflopsPerWatt(), 0.0);
}

TEST(Ledger, ResetClearsEverything)
{
    EnergyLedger l;
    l.post("host", {1.0, 1.0}, "k");
    l.attribute("host", 1.0);
    l.addFlops(1e9);
    l.reset();
    EXPECT_DOUBLE_EQ(l.total().joules, 0.0);
    EXPECT_TRUE(l.tracks().empty());
    EXPECT_TRUE(l.events().empty());
    EXPECT_TRUE(l.energyByComponent().parts().empty());
    EXPECT_DOUBLE_EQ(l.flops(), 0.0);
}

TEST(Ledger, JsonCarriesMachineTracksAndComponents)
{
    EnergyLedger l;
    l.post("accel", {0.25, 1.5}, "execute");
    l.attribute("dram", 1.0);
    l.note("dispatch/dot/host");
    std::string j = l.toJson("haswell4770k");
    EXPECT_NE(j.find("\"machine\": \"haswell4770k\""),
              std::string::npos);
    EXPECT_NE(j.find("\"accel\""), std::string::npos);
    EXPECT_NE(j.find("\"dram\": 1"), std::string::npos);
    EXPECT_NE(j.find("\"dispatch/dot/host\""), std::string::npos);
    EXPECT_NE(j.find("\"gflops_per_watt\""), std::string::npos);
}

} // namespace
} // namespace mealib

// Tests for the resilience stack layered over fault injection: the
// quarantine/probation/strike-out state machine (unit and integration),
// checkpoint-replay numeric identity under sustained multi-fault
// pressure, mid-run stack death resuming on a survivor for less than a
// whole-program host fallback, and bit-for-bit ledger neutrality when
// every resilience layer is disabled.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/runtime.hh"

namespace mealib::runtime {
namespace {

using accel::AccelKind;
using accel::DescriptorProgram;
using accel::OpCall;
using Action = StackHealthMonitor::Action;

constexpr std::int64_t kSliceN = 1 << 13; // floats per iteration
constexpr std::uint32_t kIters = 256;     // expanded COMPs per command
constexpr std::int64_t kN = kSliceN * kIters;

RuntimeConfig
baseConfig(unsigned stacks = 2)
{
    RuntimeConfig cfg;
    cfg.backingBytes = 128_MiB;
    cfg.numStacks = stacks;
    return cfg;
}

/** Looped AXPY with beta = 0: the output interval is disjoint from the
 * inputs and never read, so the plan is rerun-safe (checkpointable). */
AccPlanHandle
planRerunSafe(MealibRuntime &rt, const float *x, float *y)
{
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = static_cast<std::uint64_t>(kSliceN);
    c.alpha = 2.0f;
    c.beta = 0.0f;
    c.in0.base = rt.physOf(x);
    c.out.base = rt.physOf(y);
    c.in0.stride = {kSliceN * 4, 0, 0, 0};
    c.out.stride = {kSliceN * 4, 0, 0, 0};
    accel::LoopSpec loop;
    loop.dims = {kIters, 1, 1, 1};
    DescriptorProgram prog;
    prog.addLoop(loop, 2);
    prog.addComp(c);
    prog.addPassEnd();
    return rt.accPlan(prog);
}

struct Operands
{
    std::vector<float *> x, y;
};

Operands
fillOperands(MealibRuntime &rt)
{
    Operands ops;
    for (unsigned s = 0; s < rt.numStacks(); ++s) {
        auto *x = static_cast<float *>(rt.memAllocOn(s, kN * 4));
        auto *y = static_cast<float *>(rt.memAllocOn(s, kN * 4));
        for (std::int64_t i = 0; i < kN; ++i) {
            x[i] = 0.125f * static_cast<float>(i % 53) + s;
            y[i] = 0.0f;
        }
        ops.x.push_back(x);
        ops.y.push_back(y);
    }
    return ops;
}

std::vector<Event>
runWorkload(MealibRuntime &rt, const Operands &ops,
            unsigned perStack = 3)
{
    std::vector<Event> events;
    for (unsigned round = 0; round < perStack; ++round)
        for (unsigned s = 0; s < rt.numStacks(); ++s)
            events.push_back(
                rt.accSubmit(planRerunSafe(rt, ops.x[s], ops.y[s])));
    rt.waitAll();
    return events;
}

// --- quarantine state machine (unit) ----------------------------------

HealthConfig
monitorConfig()
{
    HealthConfig cfg;
    cfg.quarantineThreshold = 0.5;
    cfg.windowCommands = 8;
    cfg.minSamples = 4;
    cfg.probationAfterCommands = 4;
    cfg.canaryCommands = 2;
    return cfg;
}

TEST(HealthMonitor, FlakyStackQuarantinesThenReadmits)
{
    StackHealthMonitor mon(monitorConfig(), 2);
    ASSERT_TRUE(mon.enabled());
    EXPECT_EQ(mon.state(0), StackHealth::Healthy);

    // Three faulted outcomes stay below minSamples: no verdict yet.
    std::uint64_t cmd = 0;
    for (; cmd < 3; ++cmd)
        EXPECT_EQ(mon.recordOutcome(0, cmd, true), Action::None);
    EXPECT_EQ(mon.state(0), StackHealth::Healthy);

    // The fourth crosses minSamples with score 1.0 >= threshold 0.5.
    EXPECT_EQ(mon.recordOutcome(0, cmd, true), Action::Quarantine);
    EXPECT_EQ(mon.state(0), StackHealth::Quarantined);
    EXPECT_EQ(mon.quarantines(), 1u);
    EXPECT_EQ(mon.score(0), 1.0);
    EXPECT_EQ(mon.canaryTarget(), StackHealthMonitor::kNone);

    // Quarantined at cmd 3, cooldown 4: probation begins at cmd 7.
    EXPECT_TRUE(mon.beginCommand(5).empty());
    EXPECT_EQ(mon.state(0), StackHealth::Quarantined);
    std::vector<unsigned> changed = mon.beginCommand(7);
    ASSERT_EQ(changed.size(), 1u);
    EXPECT_EQ(changed[0], 0u);
    EXPECT_EQ(mon.state(0), StackHealth::Probation);
    EXPECT_EQ(mon.canaryTarget(), 0u);

    // Two clean canaries re-admit and forget the flaky window.
    EXPECT_EQ(mon.recordOutcome(0, 8, false), Action::None);
    EXPECT_EQ(mon.recordOutcome(0, 9, false), Action::Readmit);
    EXPECT_EQ(mon.state(0), StackHealth::Healthy);
    EXPECT_EQ(mon.readmissions(), 1u);
    EXPECT_EQ(mon.score(0), 0.0);

    // Stack 1 never produced an outcome and never changed state.
    EXPECT_EQ(mon.state(1), StackHealth::Healthy);
    EXPECT_EQ(mon.score(1), 0.0);

    mon.reset();
    EXPECT_EQ(mon.quarantines(), 0u);
    EXPECT_EQ(mon.readmissions(), 0u);
    EXPECT_EQ(mon.strikes(0), 0u);
}

TEST(HealthMonitor, FaultedCanaryStrikesOutToPermanentDeath)
{
    HealthConfig cfg = monitorConfig();
    cfg.maxStrikes = 2;
    StackHealthMonitor mon(cfg, 1);

    // First quarantine entry is strike one.
    for (std::uint64_t cmd = 0; cmd < 3; ++cmd)
        EXPECT_EQ(mon.recordOutcome(0, cmd, true), Action::None);
    EXPECT_EQ(mon.recordOutcome(0, 3, true), Action::Quarantine);
    EXPECT_EQ(mon.strikes(0), 1u);

    // A faulted canary on probation costs the second and final strike.
    ASSERT_EQ(mon.beginCommand(7).size(), 1u);
    EXPECT_EQ(mon.recordOutcome(0, 7, true), Action::Die);
    EXPECT_EQ(mon.strikes(0), 2u);

    // The runtime reacts to Die with failStack() -> markDead(): from
    // there the slot is inert.
    mon.markDead(0);
    EXPECT_EQ(mon.state(0), StackHealth::Dead);
    EXPECT_EQ(mon.recordOutcome(0, 8, true), Action::None);
    EXPECT_EQ(mon.state(0), StackHealth::Dead);
    EXPECT_TRUE(mon.beginCommand(1000).empty());
}

TEST(HealthMonitor, HealthySamplesDiluteTheScore)
{
    // Alternating good/bad outcomes peak at 3/5 = 0.6 while the window
    // fills and settle at 0.5; a 0.7 threshold never quarantines, so
    // bursts matter but background noise does not.
    HealthConfig cfg = monitorConfig();
    cfg.quarantineThreshold = 0.7;
    StackHealthMonitor mon(cfg, 1);
    for (std::uint64_t cmd = 0; cmd < 16; ++cmd)
        EXPECT_EQ(mon.recordOutcome(0, cmd, cmd % 2 == 0), Action::None);
    EXPECT_EQ(mon.state(0), StackHealth::Healthy);
    EXPECT_EQ(mon.score(0), 0.5);
}

// --- quarantine (integration) -----------------------------------------

TEST(HealthIntegration, QuarantinedStackStopsReceivingWork)
{
    // Every command on stack 0 hangs and falls back; four of them cross
    // the window threshold and quarantine the stack, after which the
    // scheduler steers new work to the survivor.
    RuntimeConfig cfg = baseConfig(2);
    cfg.fault.seed = 17;
    cfg.fault.hangRate = 1.0;
    cfg.retry.maxRetries = 0;
    cfg.health.quarantineThreshold = 1.0;
    cfg.health.windowCommands = 4;
    cfg.health.minSamples = 4;
    cfg.health.probationAfterCommands = 1000; // stays quarantined
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);

    for (unsigned i = 0; i < 4; ++i) {
        Event ev =
            rt.accSubmitOn(planRerunSafe(rt, ops.x[0], ops.y[0]), 0);
        EXPECT_EQ(ev.state(), EventState::FellBack);
    }
    EXPECT_EQ(rt.stackHealth(0), StackHealth::Quarantined);
    EXPECT_EQ(rt.selectableStackCount(), 1u);
    EXPECT_EQ(rt.accounting().quarantines, 1u);
    EXPECT_FALSE(rt.stackFailed(0)); // steered around, not dead
    EXPECT_EQ(rt.healthyStackCount(), 2u);

    const std::uint64_t landed = rt.queue(0).submitted();
    for (unsigned i = 0; i < 3; ++i) {
        Event ev = rt.accSubmit(planRerunSafe(rt, ops.x[1], ops.y[1]));
        EXPECT_EQ(ev.stack(), 1u);
    }
    EXPECT_EQ(rt.queue(0).submitted(), landed);
    rt.waitAll();
}

TEST(HealthIntegration, ProbationCanaryStrikesOutAndStackDies)
{
    // Quarantine at command 3, probation two submissions later; the
    // canary the runtime routes back to stack 0 hangs too, which is the
    // final strike: the monitor reports Die and the runtime fails the
    // stack permanently.
    RuntimeConfig cfg = baseConfig(2);
    cfg.fault.seed = 23;
    cfg.fault.hangRate = 1.0;
    cfg.retry.maxRetries = 0;
    cfg.health.quarantineThreshold = 1.0;
    cfg.health.windowCommands = 4;
    cfg.health.minSamples = 4;
    cfg.health.probationAfterCommands = 2;
    cfg.health.canaryCommands = 1;
    cfg.health.maxStrikes = 2;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);

    for (unsigned i = 0; i < 4; ++i)
        rt.accSubmitOn(planRerunSafe(rt, ops.x[0], ops.y[0]), 0);
    EXPECT_EQ(rt.stackHealth(0), StackHealth::Quarantined);

    // Submission 4 still sees the cooldown; submission 5 promotes the
    // stack to probation and is steered onto it as the canary.
    Event ev4 = rt.accSubmit(planRerunSafe(rt, ops.x[1], ops.y[1]));
    EXPECT_EQ(ev4.stack(), 1u);
    Event canary = rt.accSubmit(planRerunSafe(rt, ops.x[0], ops.y[0]));
    EXPECT_EQ(canary.stack(), 0u);
    EXPECT_EQ(canary.state(), EventState::FellBack);

    EXPECT_EQ(rt.stackHealth(0), StackHealth::Dead);
    EXPECT_TRUE(rt.stackFailed(0));
    EXPECT_EQ(rt.healthyStackCount(), 1u);
    EXPECT_EQ(rt.healthMonitor().strikes(0), 2u);
    EXPECT_EQ(rt.accounting().quarantines, 2u);
    EXPECT_EQ(rt.accounting().readmissions, 0u);
    rt.waitAll();
}

// --- checkpoint/replay under chaos ------------------------------------

TEST(ChaosSoak, ReplayNumericIdentityAcrossSeeds)
{
    // The full resilience stack under every fault class at once, three
    // seeds: whatever the recovery ladder does — retries, checkpoint
    // resumes, quarantines, host fallbacks — the functional results
    // must be bit-identical to a fault-free run.
    MealibRuntime clean(baseConfig(2));
    Operands opsClean = fillOperands(clean);
    runWorkload(clean, opsClean, 4);

    std::uint64_t ladderUse = 0;
    for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
        RuntimeConfig cfg = baseConfig(2);
        cfg.fault.seed = seed;
        cfg.fault.eccCorrectableRate = 0.2;
        cfg.fault.eccUncorrectableRate = 0.05;
        cfg.fault.linkCrcRate = 0.1;
        cfg.fault.hangRate = 0.1;
        cfg.fault.computeTransientRate = 0.2;
        cfg.fault.silentCorruptionRate = 0.2;
        cfg.retry.maxRetries = 8;
        cfg.integrity.verifyTransfers = true;
        cfg.checkpoint.intervalComps = 32;
        cfg.health.quarantineThreshold = 0.9;
        MealibRuntime rt(cfg);
        Operands ops = fillOperands(rt);
        std::vector<Event> events = runWorkload(rt, ops, 4);

        for (Event &ev : events)
            EXPECT_TRUE(completed(ev.state()));
        const RuntimeAccounting &acct = rt.accounting();
        EXPECT_EQ(acct.silentUndetected, 0u); // verification is on
        ladderUse += acct.retryCount + acct.silentDetected +
                     acct.resumedFromCheckpoint;
        for (unsigned s = 0; s < 2; ++s)
            EXPECT_EQ(0, std::memcmp(opsClean.y[s], ops.y[s], kN * 4))
                << "seed " << seed << " stack " << s;
    }
    // The sweep actually exercised the ladder, not a quiet run.
    EXPECT_GT(ladderUse, 0u);
}

TEST(ChaosSoak, StackDeathResumesOnSurvivorCheaperThanHostFallback)
{
    // Scripted mid-run death of stack 0 with checkpointing: the drained
    // backlog resumes on stack 1 from committed snapshots. Results are
    // identical to fault-free, and the modeled cost is strictly below
    // the whole-program host-fallback a survivor-less topology forces.
    MealibRuntime clean(baseConfig(2));
    Operands opsClean = fillOperands(clean);
    std::vector<Event> evClean;
    for (unsigned i = 0; i < 6; ++i)
        evClean.push_back(clean.accSubmitOn(
            planRerunSafe(clean, opsClean.x[0], opsClean.y[0]), 0));
    clean.waitAll();

    RuntimeConfig cfg = baseConfig(2);
    cfg.fault.failStack = 0;
    cfg.fault.failStackAfter = 4;
    cfg.checkpoint.intervalComps = 8;
    MealibRuntime rt(cfg);
    Operands ops = fillOperands(rt);
    std::vector<Event> events;
    for (unsigned i = 0; i < 6; ++i)
        events.push_back(
            rt.accSubmitOn(planRerunSafe(rt, ops.x[0], ops.y[0]), 0));
    rt.waitAll();

    EXPECT_TRUE(rt.stackFailed(0));
    unsigned resumed = 0;
    for (Event &ev : events) {
        EXPECT_TRUE(completed(ev.state()));
        if (ev.state() == EventState::Resumed) {
            ++resumed;
            EXPECT_EQ(ev.stack(), 1u); // re-homed to the survivor
        }
    }
    EXPECT_GT(resumed, 0u);
    EXPECT_EQ(rt.accounting().resumedFromCheckpoint, resumed);
    EXPECT_EQ(rt.accounting().fallbackCount, 0u);
    EXPECT_EQ(0, std::memcmp(opsClean.y[0], ops.y[0], kN * 4));

    // Same workload, same scripted death, no second stack: every
    // outstanding command falls back to a whole-program host run.
    RuntimeConfig solo = baseConfig(1);
    solo.fault.failStack = 0;
    solo.fault.failStackAfter = 4;
    solo.checkpoint.intervalComps = 8;
    MealibRuntime host(solo);
    Operands opsHost = fillOperands(host);
    for (unsigned i = 0; i < 6; ++i)
        host.accSubmitOn(planRerunSafe(host, opsHost.x[0], opsHost.y[0]),
                         0);
    host.waitAll();

    EXPECT_GT(host.accounting().fallbackCount, 0u);
    EXPECT_LT(rt.accounting().total().seconds,
              host.accounting().total().seconds);
    EXPECT_LT(rt.accounting().makespanSeconds,
              host.accounting().makespanSeconds);
    EXPECT_EQ(0, std::memcmp(opsClean.y[0], opsHost.y[0], kN * 4));
}

// --- neutrality pin ---------------------------------------------------

TEST(ChaosSoak, DisabledResilienceLayersAreBitForBitNeutral)
{
    // A config that merely carries the resilience knobs — all of them
    // off — must not move a single ledger bit: no integrity track, no
    // snapshots, no health activity, identical costs and numerics.
    MealibRuntime rtA(baseConfig());
    Operands opsA = fillOperands(rtA);
    runWorkload(rtA, opsA);

    RuntimeConfig cfg = baseConfig();
    cfg.fault.seed = 5; // disarmed: every rate is zero
    cfg.integrity.verifyTransfers = false;
    cfg.checkpoint.intervalComps = 0;
    cfg.health.quarantineThreshold = 0.0;
    MealibRuntime rtB(cfg);
    Operands opsB = fillOperands(rtB);
    runWorkload(rtB, opsB);

    const RuntimeAccounting &a = rtA.accounting();
    const RuntimeAccounting &b = rtB.accounting();
    EXPECT_EQ(a.total().seconds, b.total().seconds);
    EXPECT_EQ(a.total().joules, b.total().joules);
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(b.integrity().seconds, 0.0);
    EXPECT_EQ(b.integrity().joules, 0.0);
    EXPECT_EQ(b.silentDetected + b.silentUndetected, 0u);
    EXPECT_EQ(b.checkpointsTaken, 0u);
    EXPECT_EQ(b.resumedFromCheckpoint, 0u);
    EXPECT_EQ(b.quarantines + b.readmissions, 0u);
    EXPECT_EQ(rtB.journal().taken(), 0u);
    EXPECT_EQ(rtB.ledger().tracks().count("integrity"), 0u);
    EXPECT_EQ(rtA.ledger().total().seconds,
              rtB.ledger().total().seconds);
    EXPECT_EQ(rtA.ledger().total().joules, rtB.ledger().total().joules);
    for (unsigned s = 0; s < 2; ++s)
        EXPECT_EQ(0, std::memcmp(opsA.y[s], opsB.y[s], kN * 4));
}

} // namespace
} // namespace mealib::runtime

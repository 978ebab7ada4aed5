/**
 * @file
 * Ablation: fault injection and graceful degradation (docs/FAULTS.md).
 *
 * Sweeps the per-attempt fault rate x retry budget x stack count over a
 * fan-out of independent LOOP descriptors and reports what failure
 * costs: the makespan under recovery, how many commands completed on an
 * accelerator after retries, and how many had to fall back to the host.
 * Shows
 *  1. retry budget: with 0 retries every transient fault becomes a host
 *     fallback; a small budget absorbs almost all of them;
 *  2. fault rate: recovery cost grows smoothly until fallbacks dominate
 *     the host track;
 *  3. stacks: more queues dilute per-stack damage, and a scripted
 *     whole-stack failure mid-run shows survivors absorbing the drain.
 *
 * Each configuration also emits one JSON line (machine-readable, for
 * plotting) after the human-readable table. All rolls derive from one
 * fixed seed, so every cell is bit-reproducible.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "runtime/runtime.hh"

using namespace mealib;
using accel::AccelKind;
using accel::DescriptorProgram;
using accel::LoopSpec;
using accel::OpCall;

namespace {

constexpr std::uint64_t kSeed = 1234567;

struct Sample
{
    unsigned stacks;
    double rate;
    unsigned maxRetries;
    bool scripted;      //!< one stack killed mid-run
    double serialS;
    double makespanS;
    double joules;
    std::uint64_t retries;
    std::uint64_t fallbacks;
    std::uint64_t watchdog;
    std::uint64_t eccCorrected;
    unsigned completed; //!< commands whose results are usable
    unsigned plans;
};

/** Submit independent looped-AXPY plans under injection, measure. */
Sample
runConfig(unsigned stacks, double rate, unsigned maxRetries,
          bool scripted, unsigned plans)
{
    runtime::RuntimeConfig cfg;
    cfg.functional = false; // cost model only: paper-scale operands
    cfg.numStacks = stacks;
    cfg.fault.seed = kSeed;
    cfg.fault.eccCorrectableRate = rate;
    cfg.fault.eccUncorrectableRate = rate / 4.0;
    cfg.fault.linkCrcRate = rate / 2.0;
    cfg.fault.hangRate = rate / 4.0;
    cfg.fault.computeTransientRate = rate;
    if (scripted) {
        cfg.fault.failStack = 0;
        cfg.fault.failStackAfter = plans / 2;
    }
    cfg.retry.maxRetries = maxRetries;
    runtime::MealibRuntime rt(cfg);

    const std::uint64_t span = cfg.backingBytes / stacks;
    const std::uint64_t slice = 1 << 13; // floats per loop iteration
    LoopSpec loop;
    loop.dims = {256, 1, 1, 1};

    std::vector<runtime::AccPlanHandle> handles;
    std::vector<runtime::Event> events;
    for (unsigned i = 0; i < plans; ++i) {
        const unsigned home = i % stacks;
        const std::uint64_t base =
            static_cast<std::uint64_t>(home) * span +
            (home == 0 ? cfg.commandBytes : 0);
        const std::int64_t step = static_cast<std::int64_t>(slice * 4);
        OpCall c;
        c.kind = AccelKind::AXPY;
        c.n = slice;
        c.in0.base = base;
        c.in0.stride = {step, 0, 0, 0};
        c.out.base = base + span / 2;
        c.out.stride = {step, 0, 0, 0};
        DescriptorProgram d;
        d.addLoop(loop, 2);
        d.addComp(c);
        d.addPassEnd();
        handles.push_back(rt.accPlan(d));
        events.push_back(rt.accSubmit(handles.back()));
    }
    rt.waitAll();

    Sample s;
    s.stacks = stacks;
    s.rate = rate;
    s.maxRetries = maxRetries;
    s.scripted = scripted;
    s.plans = plans;
    s.serialS = rt.accounting().total().seconds;
    s.makespanS = rt.accounting().makespanSeconds;
    s.joules = rt.accounting().total().joules;
    s.retries = rt.accounting().retryCount;
    s.fallbacks = rt.accounting().fallbackCount;
    s.watchdog = rt.accounting().watchdogFires;
    s.eccCorrected = rt.accounting().eccCorrected;
    s.completed = 0;
    for (runtime::Event &e : events)
        if (runtime::completed(e.state()))
            s.completed++;
    for (runtime::AccPlanHandle h : handles)
        rt.accDestroy(h);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagTable("Ablation: fault injection and graceful degradation "
              "(takes no flags).")
        .parseOrExit(argc, argv);
    bench::banner("Ablation: fault injection & graceful degradation",
                  "fault rate x retry budget x stack count; recovery "
                  "cost and availability under a fixed seed");
    const unsigned plans = 32;

    bench::Table t({"stacks", "rate", "retries", "fail-stack",
                    "makespan (ms)", "retried", "fellback", "watchdog",
                    "ecc-c", "completed"});
    std::vector<Sample> samples;
    for (unsigned stacks : {1u, 2u, 4u}) {
        for (double rate : {0.0, 0.02, 0.1}) {
            for (unsigned maxRetries : {0u, 1u, 3u}) {
                for (bool scripted : {false, true}) {
                    if (scripted && stacks == 1)
                        continue; // no survivor to drain to
                    Sample s = runConfig(stacks, rate, maxRetries,
                                         scripted, plans);
                    samples.push_back(s);
                    t.row({std::to_string(s.stacks),
                           bench::fmt("%.2f", s.rate),
                           std::to_string(s.maxRetries),
                           s.scripted ? "yes" : "no",
                           bench::fmt("%.3f", s.makespanS * 1e3),
                           std::to_string(s.retries),
                           std::to_string(s.fallbacks),
                           std::to_string(s.watchdog),
                           std::to_string(s.eccCorrected),
                           std::to_string(s.completed) + "/" +
                               std::to_string(s.plans)});
                }
            }
        }
    }
    t.print();

    std::printf("JSON:\n");
    for (const Sample &s : samples)
        std::printf("{\"bench\":\"ablation_faults\",\"stacks\":%u,"
                    "\"rate\":%.9g,\"max_retries\":%u,"
                    "\"fail_stack\":%s,\"serial_s\":%.9g,"
                    "\"makespan_s\":%.9g,\"joules\":%.9g,"
                    "\"retries\":%llu,\"fallbacks\":%llu,"
                    "\"watchdog\":%llu,\"ecc_corrected\":%llu,"
                    "\"completed\":%u,\"plans\":%u}\n",
                    s.stacks, s.rate, s.maxRetries,
                    s.scripted ? "true" : "false", s.serialS,
                    s.makespanS, s.joules,
                    static_cast<unsigned long long>(s.retries),
                    static_cast<unsigned long long>(s.fallbacks),
                    static_cast<unsigned long long>(s.watchdog),
                    static_cast<unsigned long long>(s.eccCorrected),
                    s.completed, s.plans);

    std::printf("\nTakeaway: a retry budget of 1-3 absorbs nearly every "
                "transient at these rates; with 0 retries each fault "
                "becomes a host fallback and the host track dominates "
                "the makespan. A whole-stack failure drains its backlog "
                "to survivors, so availability stays at 100%% while the "
                "makespan pays the re-homed occupancy.\n");
    return 0;
}

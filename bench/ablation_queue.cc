/**
 * @file
 * Ablation: the asynchronous command-queue engine (docs/RUNTIME.md).
 *
 * Sweeps queue depth x scheduler policy x stack count over a fan-out of
 * independent LOOP descriptors (one working set per stack) and reports
 * the overlap-aware makespan against the serial total. Shows
 *  1. stacks: the dominant lever — independent queues overlap;
 *  2. queue depth: how many outstanding commands the host may run
 *     ahead of before a submit stalls (depth 1 degenerates to the
 *     blocking Listing-2 schedule);
 *  3. scheduler: locality keeps zero remote traffic, round_robin
 *     spreads work but pays inter-stack links when operands don't
 *     follow.
 *
 * Each configuration also emits one JSON line (machine-readable, for
 * plotting) after the human-readable table.
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

struct Sample
{
    unsigned stacks;
    unsigned depth;
    runtime::SchedulerPolicy policy;
    double serialS;
    double makespanS;
    double submitDoneS; //!< host clock when the last submit returned
    double joules;
    double remoteBytes;
};

/** Submit one looped-AXPY descriptor per working set, wait, measure. */
Sample
runConfig(unsigned stacks, unsigned depth,
          runtime::SchedulerPolicy policy, unsigned plans)
{
    runtime::RuntimeConfig cfg;
    cfg.functional = false; // cost model only: paper-scale operands
    cfg.numStacks = stacks;
    cfg.queueDepth = depth;
    cfg.scheduler = policy;
    runtime::MealibRuntime rt(cfg);

    const std::uint64_t span = cfg.backingBytes / stacks;
    const std::uint64_t slice = 1 << 13; // floats per loop iteration
    LoopSpec loop;
    loop.dims = {256, 1, 1, 1};

    double remote = 0.0;
    std::vector<runtime::AccPlanHandle> handles;
    std::vector<runtime::Event> events;
    for (unsigned i = 0; i < plans; ++i) {
        // Plan i's operands live on stack (stacks-1 - i%stacks): evenly
        // spread, but in the REVERSE of submission order. Locality
        // follows the operands (zero remote traffic); round_robin's
        // cursor walks forward, so every pick lands off-home and pays
        // the inter-stack links (Sec. 3.3).
        const unsigned home = stacks - 1 - (i % stacks);
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
    // How far behind the queues the host got to run: with deep queues
    // the last submit returns almost immediately; with depth 1 every
    // submit stalls until the queue's previous command retires.
    const double submitDone = rt.nowSeconds();
    rt.waitAll();

    Sample s;
    s.stacks = stacks;
    s.depth = depth;
    s.policy = policy;
    s.serialS = rt.accounting().total().seconds;
    s.makespanS = rt.accounting().makespanSeconds;
    s.submitDoneS = submitDone;
    s.joules = rt.accounting().total().joules;
    for (const runtime::Event &e : events)
        remote += e.stats().remoteBytes;
    s.remoteBytes = remote;
    for (runtime::AccPlanHandle h : handles)
        rt.accDestroy(h);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagTable("Ablation: asynchronous command queues "
              "(takes no flags).")
        .parseOrExit(argc, argv);
    bench::banner("Ablation: asynchronous command queues",
                  "queue depth x scheduler x stack count; overlap-aware "
                  "makespan vs serial total");
    const unsigned plans = 16;

    bench::Table t({"stacks", "depth", "scheduler", "serial (ms)",
                    "makespan (ms)", "speedup", "submit-done (ms)",
                    "remote (MiB)"});
    std::vector<Sample> samples;
    for (unsigned stacks : {1u, 2u, 4u, 8u}) {
        for (unsigned depth : {1u, 2u, 8u}) {
            for (runtime::SchedulerPolicy policy :
                 {runtime::SchedulerPolicy::Locality,
                  runtime::SchedulerPolicy::RoundRobin}) {
                Sample s = runConfig(stacks, depth, policy, plans);
                samples.push_back(s);
                t.row({std::to_string(s.stacks),
                       std::to_string(s.depth), runtime::name(s.policy),
                       bench::fmt("%.3f", s.serialS * 1e3),
                       bench::fmt("%.3f", s.makespanS * 1e3),
                       bench::fmt("%.2fx", s.serialS / s.makespanS),
                       bench::fmt("%.3f", s.submitDoneS * 1e3),
                       bench::fmt("%.1f", s.remoteBytes / 1048576.0)});
            }
        }
    }
    t.print();

    std::printf("JSON:\n");
    for (const Sample &s : samples)
        std::printf("{\"bench\":\"ablation_queue\",\"stacks\":%u,"
                    "\"depth\":%u,\"scheduler\":\"%s\","
                    "\"serial_s\":%.9g,\"makespan_s\":%.9g,"
                    "\"submit_done_s\":%.9g,\"joules\":%.9g,"
                    "\"remote_bytes\":%.9g}\n",
                    s.stacks, s.depth, runtime::name(s.policy),
                    s.serialS, s.makespanS, s.submitDoneS, s.joules,
                    s.remoteBytes);

    std::printf("\nTakeaway: stacks give near-linear overlap for "
                "independent plans; depth 1 serializes the host into "
                "every submit; round_robin trades locality for spread "
                "and pays the inter-stack links.\n");
    return 0;
}

/**
 * @file
 * Figure 14 reproduction: execution time and energy breakdown of the
 * MEALib STAP run.
 *
 *  (a) host vs accelerators: paper reports ~75% of time and ~90% of
 *      energy on the host multicore;
 *  (b) among the accelerators, DOT dominates (60% time / 76% energy),
 *      AXPY is smallest (3.1% / 3.8%), and the invocation overhead
 *      (cache flush + descriptor copy) stays at 3.3% / 7.1% of the
 *      accelerator total thanks to the 3-descriptor compaction.
 */

#include <cstdio>

#include "apps/stap.hh"
#include "bench_util.hh"
#include "common/cli.hh"
#include "runtime/runtime.hh"

using namespace mealib;

int
main(int argc, char **argv)
{
    FlagTable table("Figure 14: MEALib STAP time and energy breakdown.");
    const Flag &largeRow = table.add(
        {"large", FlagType::Bool, "", "the large data set, not medium"});
    const bool large = table.parseOrExit(argc, argv).on(largeRow);
    apps::StapParams params = large ? apps::StapParams::largeSet()
                                    : apps::StapParams::mediumSet();
    std::uint64_t arena = large ? 1536_MiB : 256_MiB;

    bench::banner("Figure 14: STAP time/energy breakdown on MEALib",
                  "(a) host 75% time / 90% energy; (b) DOT 60%/76%, "
                  "AXPY 3.1%/3.8%, invocation 3.3%/7.1% of the "
                  "accelerator side");

    runtime::RuntimeConfig cfg;
    cfg.backingBytes = arena;
    runtime::MealibRuntime rt(cfg);
    apps::StapResult r = apps::runStapMealib(params, rt);
    Cost total = r.total();

    std::printf("(a) host vs accelerators vs invocation\n");
    bench::Table ta({"component", "time (ms)", "time %", "energy (J)",
                     "energy %"});
    auto share = [&](Cost c, const char *name, bench::Table &t) {
        t.row({name, bench::fmt("%.3f", c.seconds * 1e3),
               bench::fmt("%.1f%%", 100.0 * c.seconds / total.seconds),
               bench::fmt("%.4f", c.joules),
               bench::fmt("%.1f%%", 100.0 * c.joules / total.joules)});
    };
    share(r.host(), "host (cherk/ctrsm/marshal + idle)", ta);
    share(r.accel(), "accelerators", ta);
    share(r.invocation(), "invocation (flush+descriptor)", ta);
    ta.print();

    std::printf("(b) accelerator-side breakdown\n");
    double acc_t = r.accel().seconds + r.invocation().seconds;
    double acc_e = r.accel().joules + r.invocation().joules;
    bench::Table tb({"accelerator", "time %", "energy %"});
    for (const auto &[k, v] : r.timeByAccel.parts()) {
        tb.row({k, bench::fmt("%.1f%%", 100.0 * v / acc_t),
                bench::fmt("%.1f%%",
                           100.0 * r.energyByAccel.get(k) / acc_e)});
    }
    tb.row({"invocation",
            bench::fmt("%.1f%%", 100.0 * r.invocation().seconds / acc_t),
            bench::fmt("%.1f%%", 100.0 * r.invocation().joules / acc_e)});
    tb.print();

    std::printf("descriptors used: %llu (paper: 3); library calls "
                "absorbed: %llu (paper: ~17M at full scale)\n",
                static_cast<unsigned long long>(r.descriptors),
                static_cast<unsigned long long>(r.libraryCalls));
    return 0;
}

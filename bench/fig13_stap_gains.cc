/**
 * @file
 * Figure 13 reproduction: STAP performance and energy-efficiency (EDP)
 * gains of MEALib over the optimized MKL+OpenMP Haswell baseline, for
 * the small/medium/large data sets.
 *
 * Paper: performance 2.0x / 2.3x / 3.2x; EDP 4.5x / 9.0x / 10.2x.
 *
 * Both modes execute the pipeline functionally (identical numerical
 * output); pass --large to include the paper-scale 16.7M-inner-product
 * set (needs ~1 GiB of arena and a couple of minutes). `--quick` runs
 * only the small set; `--json=PATH` writes per-set records (modeled
 * costs, gains, the MEALib run's ledger-derived GFLOPS/W, and the
 * functional pipeline's wall time via timeKernel).
 */

#include <complex>
#include <cstdio>

#include "apps/stap.hh"
#include "bench_util.hh"
#include "common/cli.hh"
#include "hwmodel/profile.hh"
#include "runtime/runtime.hh"

using namespace mealib;

int
main(int argc, char **argv)
{
    FlagTable table("Figure 13: STAP gains over the Haswell baseline.", "",
                    0, {"full runs", "--quick runs"});
    const Flag &quickRow = table.add(
        {"quick", FlagType::Bool, "", "only the small data set"});
    const Flag &large = table.add(
        Flag{"large", FlagType::Bool, "", "add the large data set"}.in(1));
    const Flag &paperScale = table.add(
        Flag{"paper-scale", FlagType::Bool, "", "same as --large"}.in(1));
    const Flag &jsonRow =
        table.add({"json", FlagType::String, "", "write records to PATH"});
    const Flags flags = table.parseOrExit(
        argc, argv, [&](const Flags &f) { return f.on(quickRow) ? 2 : 1; });
    const bool quick = flags.on(quickRow);
    const bool include_large = flags.on(large) || flags.on(paperScale);
    const std::string json_path = flags.text(jsonRow);

    bench::banner("Figure 13: STAP gains over the Haswell baseline",
                  "performance 2.0/2.3/3.2x and EDP 4.5/9.0/10.2x for "
                  "small/medium/large");

    struct Set
    {
        const char *name;
        apps::StapParams params;
        std::uint64_t arena;
    };
    std::vector<Set> sets = {
        {"small", apps::StapParams::smallSet(), 128_MiB},
    };
    if (!quick)
        sets.push_back(
            {"medium", apps::StapParams::mediumSet(), 256_MiB});
    if (include_large)
        sets.push_back({"large", apps::StapParams::largeSet(), 1536_MiB});

    bench::JsonWriter json;
    json.meta("bench", "fig13_stap_gains");
    json.meta("machine", hwmodel::activeMachineName());
    json.meta("quick", quick);

    bench::Table t({"set", "dot calls", "Haswell (ms)", "MEALib (ms)",
                    "perf gain", "EDP gain", "output check"});
    for (const Set &s : sets) {
        apps::StapResult host;
        apps::StapResult mea;
        // timeKernel's calibration pass plus one repetition: the whole
        // functional pipeline (both modes) runs twice, deterministically
        // producing the same results; the wall time goes to the JSON.
        bench::TimingConfig timing;
        timing.warmupIters = 0;
        timing.targetSeconds = 0.0;
        timing.repetitions = 1;
        bench::TimingResult tr = timeKernel(
            [&] {
                host = apps::runStapHost(s.params);
                runtime::RuntimeConfig cfg;
                cfg.backingBytes = s.arena;
                runtime::MealibRuntime rt(cfg);
                mea = apps::runStapMealib(s.params, rt);
            },
            timing);

        double maxdiff = 0.0;
        for (std::size_t i = 0; i < host.prods.size(); ++i)
            maxdiff = std::max(
                maxdiff, static_cast<double>(
                             std::abs(host.prods[i] - mea.prods[i])));

        const double perf_gain =
            host.total().seconds / mea.total().seconds;
        const double edp_gain = host.total().edp() / mea.total().edp();
        t.row({s.name, std::to_string(s.params.dotCalls()),
               bench::fmt("%.2f", host.total().seconds * 1e3),
               bench::fmt("%.2f", mea.total().seconds * 1e3),
               bench::fmt("%.2fx", perf_gain),
               bench::fmt("%.2fx", edp_gain),
               maxdiff == 0.0 ? "bit-identical"
                              : bench::fmt("maxdiff %.1e", maxdiff)});

        json.beginRecord();
        json.field("set", s.name);
        json.field("dot_calls",
                   static_cast<long long>(s.params.dotCalls()));
        json.field("host_seconds", host.total().seconds);
        json.field("host_joules", host.total().joules);
        json.field("host_edp", host.total().edp());
        json.field("mealib_seconds", mea.total().seconds);
        json.field("mealib_joules", mea.total().joules);
        json.field("mealib_edp", mea.total().edp());
        json.field("mealib_critical_path_seconds",
                   mea.criticalPathSeconds);
        json.field("mealib_gflops_per_watt",
                   mea.ledger.gflopsPerWatt());
        json.field("host_gflops_per_watt",
                   host.ledger.gflopsPerWatt());
        json.field("perf_gain", perf_gain);
        json.field("edp_gain", edp_gain);
        json.field("bit_identical", maxdiff == 0.0);
        json.field("pipeline_wall_seconds", tr.secondsPerCall);
        json.endRecord();
    }
    t.print();

    if (!include_large)
        std::printf("(pass --large for the paper-scale 16.7M-product "
                    "set)\n");
    std::printf("paper: perf 2.0/2.3/3.2x, EDP 4.5/9.0/10.2x\n");

    if (!json_path.empty()) {
        if (!json.writeFile(json_path)) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("STAP energy records written to %s\n",
                    json_path.c_str());
    }
    return 0;
}

/**
 * @file
 * STAP (Space-Time Adaptive Processing) on MEALib — the paper's
 * real-world application (Sec. 3.1 / 5.5).
 *
 * Runs the full Table-4 pipeline twice: once entirely through MiniMKL
 * on the host model (the optimized legacy baseline) and once with the
 * memory-bounded calls routed to the accelerators (compacted into 3
 * descriptors). Verifies the outputs are bit-identical and reports the
 * Fig. 13-style gains and Fig. 14-style breakdown.
 *
 * Run: ./build/examples/stap_pipeline [--medium|--large]
 */

#include <complex>
#include <cstdio>

#include "apps/stap.hh"
#include "common/cli.hh"
#include "runtime/runtime.hh"

using namespace mealib;

int
main(int argc, char **argv)
{
    FlagTable table("STAP on MEALib vs the host, checked bit for bit.", "",
                    0, {"small or --large runs", "--medium runs"});
    const Flag &medium = table.add(
        Flag{"medium", FlagType::Bool, "", "the medium data set"}.in(2));
    const Flag &large = table.add(
        Flag{"large", FlagType::Bool, "", "the large data set"}.in(1));
    const Flags flags = table.parseOrExit(
        argc, argv, [&](const Flags &f) { return f.on(medium) ? 2 : 1; });
    apps::StapParams params = apps::StapParams::smallSet();
    std::uint64_t arena = 128_MiB;
    if (flags.on(medium)) {
        params = apps::StapParams::mediumSet();
        arena = 256_MiB;
    } else if (flags.on(large)) {
        params = apps::StapParams::largeSet();
        arena = 1536_MiB;
    }

    std::printf("STAP: %u channels x %u dof, %u doppler bins, %u blocks "
                "x %u cells, %u steering vectors (%llu inner products)\n",
                params.nChan, params.tdof, params.nDop, params.nBlocks,
                params.tbs, params.nSteering,
                static_cast<unsigned long long>(params.dotCalls()));

    std::printf("\n[1/2] legacy baseline: MiniMKL + OpenMP on the "
                "Haswell model...\n");
    apps::StapResult host = apps::runStapHost(params);
    std::printf("  time %.2f ms, energy %.3f J (%llu library calls)\n",
                host.total().seconds * 1e3, host.total().joules,
                static_cast<unsigned long long>(host.libraryCalls));

    std::printf("[2/2] same pipeline on MEALib accelerators...\n");
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = arena;
    runtime::MealibRuntime rt(cfg);
    apps::StapResult mea = apps::runStapMealib(params, rt);
    std::printf("  time %.2f ms, energy %.3f J (%llu calls -> %llu "
                "descriptors)\n",
                mea.total().seconds * 1e3, mea.total().joules,
                static_cast<unsigned long long>(mea.libraryCalls),
                static_cast<unsigned long long>(mea.descriptors));

    double maxdiff = 0.0;
    for (std::size_t i = 0; i < host.prods.size(); ++i)
        maxdiff = std::max(maxdiff,
                           static_cast<double>(std::abs(
                               host.prods[i] - mea.prods[i])));
    std::printf("\noutput check: %s\n",
                maxdiff == 0.0 ? "bit-identical" : "DIFFERS");

    std::printf("performance gain: %.2fx   EDP gain: %.2fx   (paper "
                "Fig. 13: 2.0-3.2x / 4.5-10.2x)\n",
                host.total().seconds / mea.total().seconds,
                host.total().edp() / mea.total().edp());

    std::printf("\nMEALib-side breakdown (Fig. 14):\n");
    std::printf("  host  : %5.1f%% time, %5.1f%% energy\n",
                100.0 * mea.host().seconds / mea.total().seconds,
                100.0 * mea.host().joules / mea.total().joules);
    std::printf("  accel : %5.1f%% time, %5.1f%% energy\n",
                100.0 * mea.accel().seconds / mea.total().seconds,
                100.0 * mea.accel().joules / mea.total().joules);
    for (const auto &[k, v] : mea.timeByAccel.parts())
        std::printf("    %-5s %5.1f%% of accelerator time\n", k.c_str(),
                    100.0 * v / mea.accel().seconds);
    std::printf("  invoc : %5.1f%% time\n",
                100.0 * mea.invocation().seconds / mea.total().seconds);
    return maxdiff == 0.0 ? 0 : 1;
}

/**
 * @file
 * Figure 12 reproduction: efficiency of the configuration
 * infrastructure.
 *
 *  (a) hardware vs software chaining of the RESMP+FFT SAR pipeline over
 *      problem sizes 256..8192 (paper: 2.5x at 256, shrinking);
 *  (b) hardware LOOP of 128 FFT invocations vs 128 software-issued
 *      descriptors (paper: 9.5x at 256, shrinking toward 1x).
 */

#include <cstdio>

#include "apps/sar.hh"
#include "bench_util.hh"
#include "common/cli.hh"
#include "runtime/runtime.hh"

using namespace mealib;

int
main(int argc, char **argv)
{
    FlagTable("Figure 12: efficiency of the configuration "
              "infrastructure.")
        .parseOrExit(argc, argv);

    bench::banner("Figure 12: accelerator chaining and loop efficiency",
                  "(a) SW/HW chaining 2.5x at 256^2 shrinking with "
                  "size; (b) SW/HW loop 9.5x at 256^2 shrinking toward "
                  "1x at 8192^2");

    // Cost-only runtime: addresses are modeled, buffers not touched, so
    // the full 8192^2 sizes run in milliseconds.
    runtime::RuntimeConfig cfg;
    cfg.functional = false;
    cfg.backingBytes = 8_MiB;
    runtime::MealibRuntime rt(cfg);

    const std::uint64_t sizes[] = {256, 512, 1024, 2048, 4096, 8192};

    std::printf("(a) software vs hardware chaining of RESMP+FFT (SAR)\n");
    bench::Table ta({"size", "SW (ms)", "HW (ms)", "SW/HW"});
    for (std::uint64_t n : sizes) {
        apps::SarResult hw = apps::runSarChain(n, true, rt);
        apps::SarResult sw = apps::runSarChain(n, false, rt);
        ta.row({std::to_string(n),
                bench::fmt("%.3f", sw.total.seconds * 1e3),
                bench::fmt("%.3f", hw.total.seconds * 1e3),
                bench::fmt("%.2fx", sw.total.seconds /
                                        hw.total.seconds)});
    }
    ta.print();

    std::printf("(b) software vs hardware loop of 128 FFT "
                "invocations\n");
    bench::Table tb({"size", "SW (ms)", "HW (ms)", "SW/HW"});
    for (std::uint64_t n : sizes) {
        apps::FftLoopResult hw = apps::runFftLoop(n, 128, true, rt);
        apps::FftLoopResult sw = apps::runFftLoop(n, 128, false, rt);
        tb.row({std::to_string(n),
                bench::fmt("%.3f", sw.total.seconds * 1e3),
                bench::fmt("%.3f", hw.total.seconds * 1e3),
                bench::fmt("%.2fx", sw.total.seconds /
                                        hw.total.seconds)});
    }
    tb.print();

    std::printf("paper: chaining 2.5x at 256 (declining); loop 9.5x at "
                "256 (declining)\n");
    return 0;
}

/**
 * @file
 * SAR image-formation chain on MEALib: hardware accelerator chaining
 * (paper Sec. 5.4, Fig. 12a).
 *
 * The per-row pipeline — windowed-sinc range interpolation (RESMP)
 * feeding an azimuth FFT — runs once as a single chained PASS and once
 * as two separate descriptor invocations. Both produce the same image;
 * the chained version avoids one invocation and the DRAM round trip of
 * the intermediate.
 *
 * Run: ./build/examples/sar_chain [--size=N] [--sweep]
 */

#include <complex>
#include <cstdio>

#include "apps/sar.hh"
#include "common/cli.hh"
#include "runtime/runtime.hh"

using namespace mealib;

int
main(int argc, char **argv)
{
    FlagTable table("SAR range-compression chain on MEALib.");
    const Flag &size =
        table.add({"size", FlagType::Int, "128", "image side", 1, 1 << 16});
    const Flag &sweep = table.add(
        {"sweep", FlagType::Bool, "", "add a Fig. 12a cost-model sweep"});
    const Flags flags = table.parseOrExit(argc, argv);
    const auto n = static_cast<std::uint64_t>(flags.integer(size));

    // Functional run at a laptop-friendly size.
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 128_MiB;
    runtime::MealibRuntime rt(cfg);

    std::printf("SAR chain on a %llux%llu image (range samples "
                "upsampled 2x, then azimuth FFT)\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(n));

    apps::SarResult hw = apps::runSarChain(n, true, rt);
    apps::SarResult sw = apps::runSarChain(n, false, rt);

    double maxdiff = 0.0;
    for (std::size_t i = 0; i < hw.image.size(); ++i)
        maxdiff = std::max(maxdiff,
                           static_cast<double>(std::abs(
                               hw.image[i] - sw.image[i])));
    std::printf("hardware chaining : %llu descriptor(s), %.3f ms\n",
                static_cast<unsigned long long>(hw.descriptors),
                hw.total.seconds * 1e3);
    std::printf("software chaining : %llu descriptor(s), %.3f ms\n",
                static_cast<unsigned long long>(sw.descriptors),
                sw.total.seconds * 1e3);
    std::printf("speedup from chaining: %.2fx; images %s\n",
                sw.total.seconds / hw.total.seconds,
                maxdiff == 0.0 ? "identical" : "DIFFER");

    // Spot-check the image has energy where a radar return would be.
    double energy = 0.0;
    for (auto v : hw.image)
        energy += std::norm(v);
    std::printf("image energy: %.3e (nonzero => pipeline actually "
                "computed)\n", energy);

    if (flags.on(sweep)) {
        std::printf("\ncost-model sweep over Fig. 12a sizes:\n");
        runtime::RuntimeConfig mc;
        mc.functional = false;
        mc.backingBytes = 8_MiB;
        runtime::MealibRuntime model_rt(mc);
        for (std::uint64_t s : {256, 512, 1024, 2048, 4096, 8192}) {
            double t_hw =
                apps::runSarChain(s, true, model_rt).total.seconds;
            double t_sw =
                apps::runSarChain(s, false, model_rt).total.seconds;
            std::printf("  %5llu: SW/HW = %.2fx\n",
                        static_cast<unsigned long long>(s),
                        t_sw / t_hw);
        }
    }
    return maxdiff == 0.0 ? 0 : 1;
}

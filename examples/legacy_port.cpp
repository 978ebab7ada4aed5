/**
 * @file
 * The portability story end to end (paper Secs. 3 and 3.4): take a
 * legacy C program written against MKL/FFTW APIs, run it through the
 * source-to-source compiler, and execute the generated TDL on the
 * accelerators — no reimplementation of the legacy code.
 *
 *  legacy C  --s2s-->  transformed C + TDL + param files
 *                       --bind-->  descriptor  --runtime-->  accelerators
 *
 * The example prints the transformed source (so you can see the
 * malloc -> mealib_mem_alloc and call -> acc_plan rewrites), then
 * actually executes the descriptor and verifies the numerics against a
 * plain host run of the same legacy code.
 *
 * Run: ./build/examples/legacy_port
 */

#include <cstdio>
#include <map>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "minimkl/blas1.hh"
#include "runtime/runtime.hh"
#include "s2s/compiler.hh"
#include "tdl/codegen.hh"

using namespace mealib;

namespace {

// The "legacy" program: a Listing-1-flavoured snippet using standard
// allocation and an OpenMP-parallel batch of saxpy calls.
const char *kLegacySource = R"(
/* legacy radar post-processing kernel (unchanged application code) */
float *gain = malloc(N_BATCH * N_SAMP * sizeof(float));
float *acc  = malloc(N_BATCH * N_SAMP * sizeof(float));

#pragma omp parallel for num_threads(4)
for (b = 0; b < 8; ++b)
    cblas_saxpy(4096, 0.5, &gain[b * 4096], 1, &acc[b * 4096], 1);

free(gain);
free(acc);
)";

} // namespace

int
main(int argc, char **argv)
{
    FlagTable("Port a legacy C kernel through s2s and run it.")
        .parseOrExit(argc, argv);
    std::printf("--- legacy source ---------------------------------\n");
    std::printf("%s\n", kLegacySource);

    // Source-to-source translation (the compiler of Sec. 3.4).
    s2s::TranslationResult tr = s2s::translate(kLegacySource);

    std::printf("--- transformed source ----------------------------\n");
    std::printf("%s\n", tr.source.c_str());
    std::printf("--- generated TDL ---------------------------------\n");
    std::printf("%s\n", tr.tdl.c_str());
    for (const auto &[file, text] : tr.paramFiles)
        std::printf("--- %s ---\n%s\n", file.c_str(), text.c_str());
    for (const auto &d : tr.notes)
        std::printf("note (line %u): %s\n", d.line, d.message.c_str());

    std::printf("%u plan site(s), %u allocation rewrites, %llu library "
                "calls absorbed\n\n",
                tr.plansEmitted, tr.allocRewrites,
                static_cast<unsigned long long>(tr.callsAbsorbed));

    // Execute: what the rewritten program does at run time.
    const std::int64_t batch = 8, nsamp = 4096;
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 32_MiB;
    runtime::MealibRuntime rt(cfg);
    auto *gain = static_cast<float *>(
        rt.memAlloc(batch * nsamp * sizeof(float)));
    auto *acc = static_cast<float *>(
        rt.memAlloc(batch * nsamp * sizeof(float)));
    std::vector<float> gain_ref(static_cast<std::size_t>(batch * nsamp));
    std::vector<float> acc_ref(gain_ref.size());
    for (std::int64_t i = 0; i < batch * nsamp; ++i) {
        gain[i] = static_cast<float>(i % 101) * 0.01f;
        acc[i] = 1.0f;
        gain_ref[static_cast<std::size_t>(i)] = gain[i];
        acc_ref[static_cast<std::size_t>(i)] = acc[i];
    }

    // Late binding: resolve the $placeholders the compiler left for the
    // values only known at run time (the generated mealib_acc_plan call
    // performs exactly this step).
    std::map<std::string, std::uint64_t> syms{
        {"gain", rt.physOf(gain)},
        {"acc", rt.physOf(acc)},
        {"gain_stride0", nsamp * sizeof(float)},
        {"acc_stride0", nsamp * sizeof(float)},
    };
    auto resolve = [&](const std::string &name) {
        auto it = tr.paramFiles.find(name);
        fatalIf(it == tr.paramFiles.end(), "missing param file ", name);
        return s2s::bindParams(it->second, syms);
    };
    accel::DescriptorProgram prog =
        tdl::compileTdl(s2s::bindParams(tr.tdl, syms), resolve);

    runtime::AccPlanHandle plan = rt.accPlan(prog);
    accel::ExecStats stats = rt.accExecute(plan);
    rt.accDestroy(plan);

    // Reference: the legacy code run as-is on the host library.
    for (std::int64_t b = 0; b < batch; ++b)
        mkl::saxpy(nsamp, 0.5f, gain_ref.data() + b * nsamp, 1,
                   acc_ref.data() + b * nsamp, 1);

    double maxdiff = 0.0;
    for (std::int64_t i = 0; i < batch * nsamp; ++i)
        maxdiff = std::max(maxdiff,
                           static_cast<double>(std::abs(
                               acc[i] -
                               acc_ref[static_cast<std::size_t>(i)])));
    std::printf("accelerator vs legacy host output: max |diff| = %.1e "
                "(%s)\n",
                maxdiff, maxdiff == 0.0 ? "bit-identical" : "check");
    std::printf("8 saxpy calls -> 1 descriptor, %.3f ms total "
                "(%.3f ms invocation)\n",
                stats.total.seconds * 1e3,
                stats.invocation.seconds * 1e3);

    rt.memFree(gain);
    rt.memFree(acc);
    return maxdiff == 0.0 ? 0 : 1;
}

/**
 * @file
 * Ablation: the op-IR dispatcher's offload policies (docs/DISPATCH.md).
 *
 * Sweeps policy x op kind x call size and reports, per cell, where the
 * policy sends the call and what the roofline/accelerator cost models
 * price for each side. Shows the paper's crossover shape:
 *  1. every Table-2 memory-bounded kind offloads at paper scale under
 *     crossover/calibrated, matching AccelAlways;
 *  2. small calls stay on the host — the flush + handshake overhead
 *     dominates — so AccelAlways loses there;
 *  3. compute-bounded calls (gemm, cherk, ctrsm) never offload: no
 *     Table-1 accelerator exists and the model prices them host-side.
 *
 * Emits BENCH_dispatch.json (policy/kind/scale records) after the
 * human-readable table.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/models.hh"
#include "dispatch/opdesc.hh"
#include "dispatch/policy.hh"
#include "mealib/platform.hh"

using namespace mealib;
using namespace mealib::dispatch;

namespace {

/** Backend that "succeeds" without a runtime: the bench measures the
 * policy decisions and modeled costs, not functional execution. */
class ModelBackend final : public AccelBackend
{
  public:
    const char *name() const override { return "model"; }
    Status execute(const OpDesc &) override { return Status(); }
};

struct Cell
{
    std::string policy;
    std::string kind;
    double scale;
    double hostS;
    double accelS;
    bool offloaded;
};

} // namespace

int
main(int argc, char **argv)
{
    FlagTable("Ablation: offload policy x op kind x size "
              "(takes no flags).")
        .parseOrExit(argc, argv);
    bench::banner(
        "ablation: offload policy x op kind x size (docs/DISPATCH.md)",
        "memory-bounded library calls win on the memory-side "
        "accelerators at paper scale; small and compute-bounded calls "
        "stay on the host");

    auto costs = std::make_shared<RooflineCostModel>();
    ModelBackend backend;
    const std::vector<std::string> policies{"host", "accel", "crossover",
                                            "calibrated"};
    const std::vector<double> scales{0.01, 0.1, 1.0};

    std::vector<Cell> cells;
    for (const std::string &pname : policies) {
        Dispatcher disp(makePolicy(pname));
        disp.setCostModel(costs);
        disp.attachBackend(&backend);
        for (std::uint8_t k = 0;
             k < static_cast<std::uint8_t>(accel::AccelKind::kCount);
             ++k) {
            auto kind = static_cast<accel::AccelKind>(k);
            for (double scale : scales) {
                eval::Workload w = eval::table2Workload(kind, scale);
                OpDesc d = opDescFromCall(w.call, w.loop);
                const std::uint64_t before =
                    disp.snapshot().of(d.kind).offloaded;
                disp.run(d, [] {});
                const std::uint64_t after =
                    disp.snapshot().of(d.kind).offloaded;
                cells.push_back({pname, dispatch::name(d.kind), scale,
                                 costs->hostSeconds(d),
                                 costs->accelSeconds(d),
                                 after > before});
            }
        }
        // Compute-bounded calls (STAP covariance/solve scale): priced
        // host-side under every policy.
        for (OpDesc d :
             {lowerSgemm(512, 512, 512, nullptr, nullptr, 0.0f, nullptr),
              lowerCherk(256, 1024, nullptr, 0.0f, nullptr),
              lowerCtrsm(256, 256, nullptr, nullptr)}) {
            const std::uint64_t before =
                disp.snapshot().of(d.kind).offloaded;
            disp.run(d, [] {});
            const std::uint64_t after =
                disp.snapshot().of(d.kind).offloaded;
            cells.push_back({pname, dispatch::name(d.kind), 1.0,
                             costs->hostSeconds(d),
                             costs->accelSeconds(d), after > before});
        }
        disp.detachBackend();
    }

    bench::Table table({"policy", "kind", "scale", "host ms", "accel ms",
                        "side"});
    for (const Cell &c : cells)
        table.row({c.policy, c.kind, bench::fmt("%.2f", c.scale),
                   bench::fmt("%.4f", c.hostS * 1e3),
                   c.accelS < 1e18 ? bench::fmt("%.4f", c.accelS * 1e3)
                                   : "-",
                   c.offloaded ? "accel" : "host"});
    table.print();

    bench::JsonWriter json;
    json.meta("bench", "ablation_dispatch");
    json.meta("experiment",
              "offload policy x op kind x size (docs/DISPATCH.md)");
    for (const Cell &c : cells) {
        json.beginRecord();
        json.field("policy", c.policy);
        json.field("kind", c.kind);
        json.field("scale", c.scale);
        json.field("host_seconds", c.hostS);
        json.field("accel_seconds", c.accelS < 1e18 ? c.accelS : -1.0);
        json.field("offloaded", c.offloaded);
        json.endRecord();
    }
    const char *out = "BENCH_dispatch.json";
    if (!json.writeFile(out)) {
        std::fprintf(stderr, "cannot write %s\n", out);
        return 1;
    }
    std::printf("wrote %s (%zu records)\n", out, cells.size());
    return 0;
}

/**
 * @file
 * Figure 10 reproduction: energy efficiency (GFLOPS/W; GB/s/W for
 * RESHP) of each operation on the five platforms, normalized to the
 * Haswell baseline. Also reports the per-op power draws that anchor the
 * comparison (Sec. 5.1 quotes 19 W MEALib vs 48 W Haswell vs 130 W Phi
 * for FFT).
 *
 * `--json=PATH` writes a BENCH_energy.json record stream (one record
 * per op x platform: modeled seconds/joules/watts, efficiency, gain,
 * and the wall time of the model evaluation via timeKernel). `--quick`
 * shrinks the workload scale and the timing budget for a CI smoke run.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"
#include "hwmodel/profile.hh"
#include "mealib/platform.hh"

using namespace mealib;
using namespace mealib::eval;
using mealib::accel::AccelKind;

int
main(int argc, char **argv)
{
    FlagTable table("Figure 10: per-op energy efficiency on five "
                    "platforms.",
                    "", 0, {"scaled runs", "--paper-scale runs"});
    const Flag &quickRow = table.add(
        {"quick", FlagType::Bool, "", "scale 1/64, short timing budget"});
    const Flag &paperScale = table.add(
        {"paper-scale", FlagType::Bool, "", "full Table 2 data sets"});
    const Flag &scaleRow =
        table.add(Flag{"scale", FlagType::Real, "0.0625",
                       "data-set scale relative to Table 2", 1e-9, 1}
                      .in(1));
    const Flag &jsonRow =
        table.add({"json", FlagType::String, "", "write records to PATH"});
    const Flags flags = table.parseOrExit(
        argc, argv, [&](const Flags &f) { return f.on(paperScale) ? 2 : 1; });
    const bool quick = flags.on(quickRow);
    const double scale = flags.on(paperScale)     ? 1.0
                         : flags.given(scaleRow) ? flags.real(scaleRow)
                         : quick                 ? 1.0 / 64.0
                                                 : 1.0 / 16.0;
    const std::string json_path = flags.text(jsonRow);

    bench::banner("Figure 10: energy-efficiency improvement over Intel "
                  "MKL on Haswell",
                  "MEALib 75x average (32.9 .. 150.4); PSAS ~10x less "
                  "than MEALib, MSAS ~5x less; Xeon Phi below 1x "
                  "everywhere");

    const AccelKind kinds[] = {
        AccelKind::AXPY, AccelKind::DOT,   AccelKind::GEMV,
        AccelKind::SPMV, AccelKind::RESMP, AccelKind::FFT,
        AccelKind::RESHP,
    };
    const Platform platforms[] = {
        Platform::HaswellMkl, Platform::XeonPhiMkl, Platform::Psas,
        Platform::Msas,       Platform::MeaLib,
    };

    bench::TimingConfig timing;
    if (quick) {
        timing.warmupIters = 1;
        timing.targetSeconds = 0.01;
        timing.repetitions = 2;
    }

    bench::JsonWriter json;
    json.meta("bench", "fig10_energy_efficiency");
    json.meta("machine", hwmodel::activeMachineName());
    json.meta("scale", scale);
    json.meta("quick", quick);

    bench::Table t({"op", "Haswell W", "MEALib W", "XeonPhi", "PSAS",
                    "MSAS", "MEALib"});
    double sums[4] = {0, 0, 0, 0};
    for (AccelKind k : kinds) {
        Workload w = table2Workload(k, scale);
        OpResult res[5];
        double eval_s[5] = {0, 0, 0, 0, 0};
        for (int p = 0; p < 5; ++p) {
            // timeKernel measures the analytical model's own wall cost
            // (it simulates a DRAM trace per estimate) — the perf
            // trajectory CI archives next to the modeled energy.
            bench::TimingResult tr = timeKernel(
                [&] { res[p] = evaluateOp(platforms[p], w); }, timing);
            eval_s[p] = tr.secondsPerCall;
        }
        const OpResult &base = res[0];
        double g[4] = {res[1].perfPerWatt() / base.perfPerWatt(),
                       res[2].perfPerWatt() / base.perfPerWatt(),
                       res[3].perfPerWatt() / base.perfPerWatt(),
                       res[4].perfPerWatt() / base.perfPerWatt()};
        for (int i = 0; i < 4; ++i)
            sums[i] += g[i];
        t.row({accel::name(k), bench::fmt("%.1f", base.cost.watts()),
               bench::fmt("%.1f", res[4].cost.watts()),
               bench::fmt("%.2fx", g[0]), bench::fmt("%.2fx", g[1]),
               bench::fmt("%.2fx", g[2]), bench::fmt("%.2fx", g[3])});

        for (int p = 0; p < 5; ++p) {
            json.beginRecord();
            json.field("op", accel::name(k));
            json.field("platform", name(platforms[p]));
            json.field("seconds", res[p].cost.seconds);
            json.field("joules", res[p].cost.joules);
            json.field("watts", res[p].cost.watts());
            json.field("edp", res[p].cost.edp());
            json.field("perf_per_watt", res[p].perfPerWatt());
            json.field("gain_vs_haswell",
                       res[p].perfPerWatt() / base.perfPerWatt());
            json.field("eval_wall_seconds", eval_s[p]);
            json.endRecord();
        }
    }
    t.row({"average", "-", "-", bench::fmt("%.2fx", sums[0] / 7),
           bench::fmt("%.2fx", sums[1] / 7),
           bench::fmt("%.2fx", sums[2] / 7),
           bench::fmt("%.2fx", sums[3] / 7)});
    t.print();

    std::printf("paper: MEALib 75x average energy-efficiency gain; FFT "
                "power 19 W (MEALib) vs 48 W (Haswell) vs 130 W (Phi)\n");

    if (!json_path.empty()) {
        if (!json.writeFile(json_path)) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("energy records written to %s\n", json_path.c_str());
    }
    return 0;
}

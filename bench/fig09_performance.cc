/**
 * @file
 * Figure 9 reproduction: performance of each Table-1 operation on the
 * five Table-3 platforms, normalized to MiniMKL on the Haswell model.
 * Also prints Tables 2 and 3 for reference.
 *
 * Default scale is 1/16 of the paper's data sets (the analytical models
 * make the ratios scale-stable; see the ScaleInvariance test); pass
 * --paper-scale for the full Table 2 sizes.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"
#include "mealib/platform.hh"

using namespace mealib;
using namespace mealib::eval;
using mealib::accel::AccelKind;

int
main(int argc, char **argv)
{
    FlagTable table("Figure 9: per-op performance on five platforms.", "", 0,
                    {"scaled runs", "--paper-scale runs"});
    const Flag &paperScale = table.add(
        {"paper-scale", FlagType::Bool, "", "full Table 2 data sets"});
    const Flag &scaleRow =
        table.add(Flag{"scale", FlagType::Real, "0.0625",
                       "data-set scale relative to Table 2", 1e-9, 1}
                      .in(1));
    const Flags flags = table.parseOrExit(
        argc, argv, [&](const Flags &f) { return f.on(paperScale) ? 2 : 1; });
    const double scale = flags.on(paperScale) ? 1.0 : flags.real(scaleRow);

    bench::banner("Figure 9: performance improvement over Intel MKL on "
                  "Haswell",
                  "MEALib 38x average (11x SPMV .. 88x RESHP); PSAS "
                  "2.51x, MSAS 10.32x average; Xeon Phi at best 2.23x "
                  "(AXPY) and 0.024x on RESHP");

    std::printf("Table 3 platforms: Haswell i7-4770K (4c @3.5 GHz, "
                "25.6 GB/s), Xeon Phi 5110P (60c @1.0 GHz, 320 GB/s),\n"
                "PSAS (accel @ 25.6 GB/s), MSAS (accel @ 102.4 GB/s), "
                "MEALib (accel @ 510 GB/s)\n\n");

    const AccelKind kinds[] = {
        AccelKind::AXPY, AccelKind::DOT,   AccelKind::GEMV,
        AccelKind::SPMV, AccelKind::RESMP, AccelKind::FFT,
        AccelKind::RESHP,
    };

    std::printf("Table 2 data sets (scale %.4f):\n", scale);
    for (AccelKind k : kinds)
        std::printf("  %-6s %s\n", accel::name(k),
                    table2Workload(k, scale).desc.c_str());
    std::printf("\n");

    bench::Table t({"op", "Haswell", "XeonPhi", "PSAS", "MSAS",
                    "MEALib", "unit"});
    double sum_phi = 0, sum_psas = 0, sum_msas = 0, sum_mea = 0;
    for (AccelKind k : kinds) {
        Workload w = table2Workload(k, scale);
        OpResult base = evaluateOp(Platform::HaswellMkl, w);
        double phi = evaluateOp(Platform::XeonPhiMkl, w).perf() /
                     base.perf();
        double psas = evaluateOp(Platform::Psas, w).perf() / base.perf();
        double msas = evaluateOp(Platform::Msas, w).perf() / base.perf();
        double mea = evaluateOp(Platform::MeaLib, w).perf() /
                     base.perf();
        sum_phi += phi;
        sum_psas += psas;
        sum_msas += msas;
        sum_mea += mea;
        t.row({accel::name(k), bench::fmt("%.2f", base.perf()),
               bench::fmt("%.2fx", phi), bench::fmt("%.2fx", psas),
               bench::fmt("%.2fx", msas), bench::fmt("%.2fx", mea),
               k == AccelKind::RESHP ? "GB/s (abs), x (rel)"
                                     : "GFLOPS (abs), x (rel)"});
    }
    t.row({"average", "-", bench::fmt("%.2fx", sum_phi / 7),
           bench::fmt("%.2fx", sum_psas / 7),
           bench::fmt("%.2fx", sum_msas / 7),
           bench::fmt("%.2fx", sum_mea / 7), ""});
    t.print();

    std::printf("paper averages: PSAS 2.51x, MSAS 10.32x, MEALib 38x\n");
    return 0;
}

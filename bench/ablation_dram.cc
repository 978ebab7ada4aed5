/**
 * @file
 * Ablation: DRAM-side design choices of the MEALib stack (DESIGN.md's
 * per-design-choice studies; not a paper figure).
 *
 *  1. vault scheduler lookahead window (FCFS .. FR-FCFS-32) on a
 *     row-mixing trace;
 *  2. open- vs closed-page policy on streaming vs random traffic;
 *  3. refresh overhead on the 3D stack vs DDR3.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "dram/params.hh"
#include "dram/stack.hh"
#include "dram/tracegen.hh"
#include "dram/vault.hh"

using namespace mealib;
using namespace mealib::dram;

namespace {

Trace
streamTrace(const DramParams &p, std::uint64_t bytes)
{
    TraceBuilder tb(p, 64_MiB);
    tb.addLinear(0, bytes / 3, false);
    tb.addLinear(1_GiB + 2 * p.org.rowBytes * p.org.numVaults,
                 bytes / 3, false);
    tb.addLinear(2_GiB + 4 * p.org.rowBytes * p.org.numVaults,
                 bytes / 3, true);
    return tb.build();
}

Trace
randomTrace(const DramParams &p, std::uint64_t bytes)
{
    TraceBuilder tb(p, 64_MiB);
    Rng rng(11);
    tb.addGather(0, 1_GiB, bytes / p.timing.burstBytes,
                 static_cast<std::uint32_t>(p.timing.burstBytes), false,
                 rng);
    return tb.build();
}

/** Interleave two same-bank row streams: worst case for FCFS. */
Trace
conflictTrace(const DramParams &p, std::uint64_t bytes)
{
    TraceBuilder tb(p, 64_MiB);
    std::uint64_t row_group = p.org.rowBytes * p.org.numVaults *
                              p.org.banksPerVault;
    tb.addStrided(0, p.org.rowBytes, row_group,
                  bytes / 2 / p.org.rowBytes, false);
    tb.addStrided(8 * row_group, p.org.rowBytes, row_group,
                  bytes / 2 / p.org.rowBytes, false);
    return tb.build();
}

} // namespace

int
main(int argc, char **argv)
{
    FlagTable("Ablation: DRAM-side design choices "
              "(takes no flags).")
        .parseOrExit(argc, argv);
    bench::banner("Ablation: DRAM-side design choices",
                  "scheduler window, page policy, refresh overhead "
                  "(design-space support for Secs. 2.1/4.2)");

    DramParams p = hmcStack();

    std::printf("(1) FR-FCFS lookahead window, bank-conflict trace\n");
    bench::Table t1({"window", "GB/s", "row hit rate"});
    Trace conflict = conflictTrace(p, 16_MiB);
    for (unsigned w : {1u, 2u, 4u, 8u, 16u, 32u}) {
        // Build a stack manually from vaults with this window.
        Vault v(p.timing, p.org, w);
        VaultStats s = v.service(conflict.requests, 0);
        double secs = static_cast<double>(s.busyUntil) * p.timing.tCK;
        double gbps = static_cast<double>(conflict.sampledBytes) / secs /
                      1e9 * p.org.numVaults; // scale one vault to stack
        double hits = static_cast<double>(s.rowHits) /
                      static_cast<double>(s.rowHits + s.rowMisses);
        t1.row({std::to_string(w), bench::fmt("%.1f", gbps),
                bench::fmt("%.3f", hits)});
    }
    t1.print();

    std::printf("(2) page policy vs traffic pattern (whole stack)\n");
    bench::Table t2({"pattern", "open (GB/s)", "closed (GB/s)"});
    {
        Stack open(p, PagePolicy::Open);
        Stack closed(p, PagePolicy::Closed);
        Trace st = streamTrace(p, 16_MiB);
        Trace rnd = randomTrace(p, 4_MiB);
        t2.row({"streaming",
                bench::fmt("%.1f", open.run(st).bandwidth() / 1e9),
                bench::fmt("%.1f", closed.run(st).bandwidth() / 1e9)});
        t2.row({"random",
                bench::fmt("%.1f", open.run(rnd).bandwidth() / 1e9),
                bench::fmt("%.1f", closed.run(rnd).bandwidth() / 1e9)});
    }
    t2.print();

    std::printf("(3) refresh overhead\n");
    bench::Table t3({"device", "with refresh (GB/s)", "without (GB/s)",
                     "overhead"});
    for (auto dev : {hmcStack(), ddr3(2)}) {
        DramParams no_ref = dev;
        no_ref.timing.tREFI = 0;
        Stack with(dev), without(no_ref);
        Trace t = streamTrace(dev, 16_MiB);
        double bw1 = with.run(t).bandwidth() / 1e9;
        double bw0 = without.run(t).bandwidth() / 1e9;
        t3.row({dev.name, bench::fmt("%.1f", bw1),
                bench::fmt("%.1f", bw0),
                bench::fmt("%.2f%%", 100.0 * (bw0 - bw1) / bw0)});
    }
    t3.print();
    return 0;
}

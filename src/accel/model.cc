#include "accel/model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dram/tracegen.hh"

namespace mealib::accel {

namespace {

/** Pipeline fill/drain cost charged per loop iteration, in PE cycles.
 * Iterations of a LOOP block are distributed across all PEs, so the
 * per-iteration bubble is amortized by tiles x cores. */
constexpr double kIterStartupCycles = 16.0;

} // namespace

AccelModel::AccelModel(AccelKind kind, const AccelConfig &cfg,
                       const dram::DramParams &dram,
                       const noc::MeshParams &mesh)
    : kind_(kind), cfg_(cfg), dramParams_(dram), mesh_(mesh),
      stack_(std::make_unique<dram::Stack>(dram))
{
}

double
AccelModel::peakFlops() const
{
    return static_cast<double>(cfg_.tiles) *
           static_cast<double>(cfg_.coresPerTile) * cfg_.flopsPerCycle *
           cfg_.freq;
}

AccelModel::TraceInfo
AccelModel::buildTrace(const OpCall &c, const LoopSpec &loop) const
{
    TraceInfo info;
    dram::TraceBuilder tb(dramParams_, 2_MiB);
    const std::uint64_t es = c.elemBytes();
    const std::uint64_t cap = dramParams_.org.capacityBytes;
    // Stagger the operand regions by a couple of bank positions so
    // concurrent streams occupy different banks (power-of-two-aligned
    // bases would otherwise all collide in bank 0 and thrash rows; the
    // runtime's allocator staggers real buffers the same way).
    const std::uint64_t bank_step = dramParams_.org.rowBytes *
                                    dramParams_.org.numVaults;
    const Addr r0 = 0;
    const Addr r1 = cap / 4 + 2 * bank_step;
    const Addr r2 = cap / 2 + 4 * bank_step;
    const Addr r3 = 3 * cap / 4 + 6 * bank_step;
    // Per-operand loop multipliers: a zero stride in a loop dimension
    // means that dimension revisits the same data, which the tile local
    // memories capture instead of DRAM (the paper's STAP weights, for
    // instance, are reused across training cells).
    auto scaledBy = [&](std::uint64_t bytes, const OperandRef &op) {
        return static_cast<std::uint64_t>(
            static_cast<double>(bytes) * operandIterations(op, loop));
    };

    switch (kind_) {
      case AccelKind::AXPY:
        tb.addLinear(r0, scaledBy(c.n * es, c.in0), false); // x
        tb.addLinear(r1, scaledBy(c.n * es, c.out), false); // y read
        tb.addLinear(r2, scaledBy(c.n * es, c.out), true);  // y write
        break;
      case AccelKind::DOT:
        tb.addLinear(r0, scaledBy(c.n * es, c.in0), false);
        tb.addLinear(r1, scaledBy(c.n * es, c.in1), false);
        break;
      case AccelKind::GEMV:
        tb.addLinear(r0, scaledBy(c.m * c.n * es, c.in0), false); // A
        tb.addLinear(r1, scaledBy(c.n * es, c.in1), false);
        tb.addLinear(r2, scaledBy(c.m * es, c.out), true);        // y
        break;
      case AccelKind::SPMV: {
        tb.addLinear(r0, scaledBy(c.m * 8, c.in0), false); // rowPtr
        tb.addLinear(r1, scaledBy(c.k * 4, c.in1), false); // colIdx
        tb.addLinear(r2, scaledBy(c.k * 4, c.in2), false); // values
        // Gather of x: the accelerator blocks columns so the hot part
        // of x lives in the tile local memories; only LM misses reach
        // DRAM, each fetching a full burst. This locality is what the
        // large SPMV area (Table 5: 14.17 mm^2 of gather lanes + LM)
        // buys — and the residual misses are why SPMV still shows the
        // smallest gain in Fig. 9 (11x).
        std::uint64_t lm_total = static_cast<std::uint64_t>(cfg_.tiles) *
                                 cfg_.localMemKiB * 1024;
        double x_bytes = static_cast<double>(c.n) * 4.0;
        double resident =
            std::min(1.0, static_cast<double>(lm_total) / x_bytes);
        double miss_rate = 1.0 - 0.9 * resident;
        auto misses = static_cast<std::uint64_t>(
            static_cast<double>(scaledBy(c.k, c.in3)) * miss_rate);
        if (misses > 0) {
            Rng rng(0x5eed5eedULL + c.k);
            std::uint64_t span = std::max<std::uint64_t>(c.n * 4, 4096);
            tb.addGather(r3, span, misses,
                         static_cast<std::uint32_t>(
                             dramParams_.timing.burstBytes),
                         false, rng);
            info.gatherBytes = static_cast<double>(
                misses * dramParams_.timing.burstBytes);
        }
        tb.addLinear(r3 + c.n * 4 + bank_step,
                     scaledBy(c.m * 4, c.out), true); // y
        break;
      }
      case AccelKind::RESMP:
        tb.addLinear(r0, scaledBy(c.n * es, c.in0), false);
        tb.addLinear(r1, scaledBy(c.m * es, c.out), true);
        break;
      case AccelKind::FFT: {
        std::uint64_t pts = c.n * std::max<std::uint64_t>(c.k, 1);
        std::uint64_t bytes = pts * es * c.m;
        std::uint64_t lm_total = static_cast<std::uint64_t>(cfg_.tiles) *
                                 cfg_.localMemKiB * 1024;
        // DRAM-optimized FFT [24]: single DRAM pass when a transform
        // fits the aggregate local memory, else a two-pass row-column
        // decomposition.
        unsigned passes = pts * es <= lm_total ? 1 : 2;
        for (unsigned p = 0; p < passes; ++p) {
            tb.addLinear(r0, scaledBy(bytes, c.in0), false);
            tb.addLinear(r2, scaledBy(bytes, c.out), true);
        }
        break;
      }
      case AccelKind::RESHP: {
        // The data-reshape unit [23] stages destination rows in its
        // SRAM and emits them as full sequential rows, so both the read
        // and the write side stream; partial edge tiles add ~10%.
        std::uint64_t in_bytes = scaledBy(c.m * c.n * es, c.in0);
        std::uint64_t out_bytes = scaledBy(c.m * c.n * es, c.out);
        tb.addLinear(r0, in_bytes, false);
        tb.addLinear(r2, out_bytes + out_bytes / 10, true);
        break;
      }
      default:
        panic("buildTrace: bad kind");
    }
    info.trace = tb.build();
    return info;
}

AccelModel::TracePrice
AccelModel::priceTrace(const OpCall &call, const LoopSpec &loop) const
{
    const TraceKey key{call.n,
                       call.m,
                       call.k,
                       call.elemBytes(),
                       {operandIterations(call.in0, loop),
                        operandIterations(call.in1, loop),
                        operandIterations(call.in2, loop),
                        operandIterations(call.in3, loop),
                        operandIterations(call.out, loop)}};

    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[k, price] : memo_)
        if (k == key)
            return price;

    // Stack::run resets every vault first, so the replay depends on
    // the trace alone, and the trace on the key alone.
    TraceInfo info = buildTrace(call, loop);
    TracePrice price{stack_->run(info.trace), info.gatherBytes,
                     info.trace.totalBytes};
    if (memo_.size() == kTraceMemoCap)
        memo_.erase(memo_.begin()); // oldest first
    memo_.emplace_back(key, price);
    return price;
}

AccelEstimate
AccelModel::estimate(const OpCall &call, const LoopSpec &loop) const
{
    const std::uint64_t iters = loop.iterations();
    fatalIf(iters == 0, "estimate: empty loop");

    const TracePrice price = priceTrace(call, loop);
    const dram::RunStats &mem = price.mem;

    AccelEstimate e;
    e.memSeconds = mem.seconds;

    // Latency-bound gathers: a PE sustains only a few outstanding
    // random accesses, so gather throughput is capped by concurrency
    // (misses x row-cycle latency / MSHRs), independent of the stack's
    // streaming bandwidth. This is what makes the SPMV design space of
    // Fig. 11 scale with PE count.
    if (price.gatherBytes > 0.0) {
        const dram::TimingParams &tm = dramParams_.timing;
        double miss_lat = static_cast<double>(tm.tRP + tm.tRCD +
                                              tm.tCAS + tm.tBURST) *
                          tm.tCK;
        constexpr double kMshrsPerPe = 4.0;
        double conc_bw = static_cast<double>(cfg_.tiles) *
                         static_cast<double>(cfg_.coresPerTile) *
                         kMshrsPerPe *
                         static_cast<double>(tm.burstBytes) / miss_lat;
        double stream_bytes =
            static_cast<double>(price.totalBytes) - price.gatherBytes;
        double lat_bound =
            price.gatherBytes / conc_bw +
            stream_bytes / dramParams_.peakInternalBandwidth();
        e.memSeconds = std::max(e.memSeconds, lat_bound);
    }
    e.bytes = static_cast<double>(mem.bytes);
    e.achievedBw = mem.bandwidth();
    e.flops = call.flops() * static_cast<double>(iters);

    SynthesisConstants synth = synthesis(kind_);
    double compute_rate = peakFlops() * synth.computeUtil;
    double pes = static_cast<double>(cfg_.tiles) *
                 static_cast<double>(cfg_.coresPerTile);
    e.computeSeconds = e.flops / compute_rate +
                       static_cast<double>(iters) * kIterStartupCycles /
                           (cfg_.freq * pes);

    double t = std::max(e.memSeconds, e.computeSeconds);

    // DRAM energy: simulated, plus background for any compute-bound
    // tail the trace simulation did not cover.
    e.dramEnergyJ = mem.energyJ;
    if (t > e.memSeconds) {
        e.dramEnergyJ += dramParams_.energy.backgroundWPerVault *
                         static_cast<double>(dramParams_.org.numVaults) *
                         (t - e.memSeconds);
    }

    e.logicEnergyJ = logicPowerW(kind_, cfg_) * t;

    // NoC: payload crosses ~2 hops on average between vault tiles and
    // the consuming PE; DOT additionally reduces partials to tile 0.
    e.nocEnergyJ = mesh_.transferJoules(2, mem.bytes) +
                   mesh_.leakageW() * t;
    if (kind_ == AccelKind::DOT || kind_ == AccelKind::SPMV ||
        kind_ == AccelKind::GEMV) {
        Cost red = mesh_.reduceToTile0(call.elemBytes() * 16);
        e.nocEnergyJ += red.joules;
        t += red.seconds; // one reduction latency per call
    }

    e.total.seconds = t;
    e.total.joules = e.dramEnergyJ + e.logicEnergyJ + e.nocEnergyJ;
    return e;
}

} // namespace mealib::accel

/**
 * @file
 * Analytical accelerator performance/power model (the paper's
 * methodology, Sec. 4.2: memory traces drive a cycle-level 3D-DRAM
 * simulator; synthesis constants plus algorithmic parameters feed a
 * per-accelerator analytical model).
 */

#ifndef MEALIB_ACCEL_MODEL_HH
#define MEALIB_ACCEL_MODEL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "accel/config.hh"
#include "accel/ops.hh"
#include "common/units.hh"
#include "dram/stack.hh"
#include "noc/mesh.hh"

namespace mealib::accel {

/** Result of estimating one accelerated operation. */
struct AccelEstimate
{
    Cost total;               //!< end-to-end time and energy
    double memSeconds = 0.0;  //!< DRAM-limited time
    double computeSeconds = 0.0; //!< PE-limited time
    double dramEnergyJ = 0.0;
    double logicEnergyJ = 0.0;
    double nocEnergyJ = 0.0;
    double achievedBw = 0.0;  //!< bytes/s sustained from DRAM
    double flops = 0.0;       //!< total floating-point work
    double bytes = 0.0;       //!< total DRAM traffic

    /** Sustained GFLOP/s (0 for pure data movement). */
    double
    gflops() const
    {
        return total.seconds > 0.0 ? flops / total.seconds / 1e9 : 0.0;
    }

    /** Sustained GB/s (the RESHP metric, paper footnote 3). */
    double
    gbps() const
    {
        return total.seconds > 0.0 ? bytes / total.seconds / 1e9 : 0.0;
    }

    /** Average power over the operation. */
    double
    powerW() const
    {
        return total.watts();
    }

    /** Energy efficiency in GFLOP/s per watt. */
    double
    gflopsPerW() const
    {
        double w = powerW();
        return w > 0.0 ? gflops() / w : 0.0;
    }
};

/**
 * Model of one accelerator kind attached to a memory device. The same
 * model serves MEALib (HMC stack), MSAS (2D DRAM, 102.4 GB/s) and PSAS
 * (host DDR3) by swapping the DramParams — exactly the comparison of
 * Table 3.
 */
class AccelModel
{
  public:
    AccelModel(AccelKind kind, const AccelConfig &cfg,
               const dram::DramParams &dram,
               const noc::MeshParams &mesh);

    /**
     * Estimate @p call iterated over @p loop. The DRAM replay is
     * remembered per call shape, so repeating a shape costs only the
     * analytical tail; the result is bit-identical either way.
     */
    AccelEstimate estimate(const OpCall &call,
                           const LoopSpec &loop = {}) const;

    AccelKind kind() const { return kind_; }
    const AccelConfig &config() const { return cfg_; }

    /** Peak PE throughput (flop/s) of this configuration. */
    double peakFlops() const;

    /**
     * Distinct call shapes whose DRAM price the model remembers; the
     * oldest entry is evicted first (docs/MODEL.md, "DRAM trace
     * pricing").
     */
    static constexpr std::size_t kTraceMemoCap = 32;

  private:
    /** A built trace plus pattern metadata the estimator needs. */
    struct TraceInfo
    {
        dram::Trace trace;
        double gatherBytes = 0.0; //!< latency-bound random traffic
    };

    /**
     * Everything buildTrace() reads from a call: its dimensions, the
     * element size, and how many loop iterations move each operand
     * (in0..in3, out). Operand bases, alpha/beta and inc never shape
     * the trace.
     */
    struct TraceKey
    {
        std::uint64_t n = 0;
        std::uint64_t m = 0;
        std::uint64_t k = 0;
        std::uint64_t elemBytes = 0;
        std::array<double, 5> iterations{};

        bool operator==(const TraceKey &) const = default;
    };

    /** The DRAM part of an estimate: a pure function of the trace. */
    struct TracePrice
    {
        dram::RunStats mem;
        double gatherBytes = 0.0;
        std::uint64_t totalBytes = 0; //!< traffic of the full trace
    };

    /** Build the sampled DRAM trace for the whole looped call. */
    TraceInfo buildTrace(const OpCall &call, const LoopSpec &loop) const;

    /** Replay the call's trace, or return the remembered replay of an
     * earlier call with the same TraceKey. */
    TracePrice priceTrace(const OpCall &call, const LoopSpec &loop) const;

    AccelKind kind_;
    AccelConfig cfg_;
    dram::DramParams dramParams_;
    noc::Mesh mesh_;
    /** Guards stack_ and the memo: estimate() is logically const and
     * may be called from several threads. */
    mutable std::mutex mu_;
    // The stack is mutated during trace simulation and reset before
    // every replay.
    std::unique_ptr<dram::Stack> stack_;
    /** Remembered prices, oldest first. */
    mutable std::vector<std::pair<TraceKey, TracePrice>> memo_;
};

} // namespace mealib::accel

#endif // MEALIB_ACCEL_MODEL_HH

/**
 * @file
 * The accelerator layer (paper Sec. 2.2, Figs. 4-5): per-vault tiles of
 * PEs with local memories behind a mesh, driven by a centralized
 * configuration unit (FetchUnit + IMEM + DecodeUnit).
 *
 * AcceleratorLayer::execute() is the DecodeUnit: it walks a decoded
 * descriptor pass by pass, functionally computes every COMP against the
 * simulated physical memory, and accounts time/energy through the
 * per-kind analytical models. Chained COMPs inside one PASS stream
 * intermediates tile-to-tile instead of round-tripping through DRAM —
 * the hardware-chaining benefit measured in Fig. 12a.
 */

#ifndef MEALIB_ACCEL_LAYER_HH
#define MEALIB_ACCEL_LAYER_HH

#include <array>
#include <memory>

#include "accel/descriptor.hh"
#include "accel/model.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "dram/physmem.hh"
#include "dram/stack.hh"
#include "noc/mesh.hh"

namespace mealib::accel {

/** Fixed costs of the configuration infrastructure. */
struct ConfigCosts
{
    double fetchPerInstrS = 0.2e-6;  //!< FU: IMEM load + decode per instr
    double accelInitS = 2.0e-6;      //!< per-accelerator configuration
    double passStartS = 0.5e-6;      //!< DU pass kickoff / completion poll
    double configUnitPowerW = 0.35;  //!< CU power while configuring
};

/** Result of executing one descriptor on the layer. */
struct ExecStats
{
    Cost total;               //!< everything below combined
    Cost invocation;          //!< descriptor fetch + config + kickoff
    Cost remote;              //!< inter-stack link traffic (if any)
    double remoteBytes = 0.0; //!< bytes that crossed stack links
    Breakdown timeByAccel;    //!< seconds keyed by accelerator name
    Breakdown energyByAccel;  //!< joules keyed by accelerator name
    /** Joules keyed by physical component ("dram"/"logic"/"noc");
     * sums to the accelerator-execution share of @c total. */
    Breakdown energyByComponent;
    std::uint64_t compsExecuted = 0; //!< expanded COMP count
    std::uint64_t passes = 0;
    double bytesMoved = 0.0;  //!< total DRAM traffic
    double flops = 0.0;

    // --- fault-injection outcome (filled by the runtime) ---------------
    unsigned retries = 0;     //!< failed attempts absorbed by retry
    bool fellBack = false;    //!< completed on the host, not this layer
    Cost faultPenalty;        //!< retry/backoff/watchdog cost included
                              //!< in @c total (zero when faults are off)

    // --- integrity & checkpoint outcome (filled by the runtime) --------
    /** Operand verification + checkpoint journaling cost, included in
     * @c total (zero unless integrity/checkpointing is enabled). */
    Cost integrity;
    /** Checkpoint snapshots written for this command. */
    std::uint64_t checkpoints = 0;
    /** Completed after resuming from a committed checkpoint. */
    bool resumed = false;
};

/** The accelerator layer attached to one memory stack. */
class AcceleratorLayer
{
  public:
    /**
     * @param dram the stack the layer sits under
     * @param mesh the inter-tile network parameters
     * @param functional when false, skip the functional kernels and only
     *        account cost (used for paper-scale model sweeps whose
     *        buffers would not fit the functional backing store)
     */
    AcceleratorLayer(const dram::DramParams &dram,
                     const noc::MeshParams &mesh, bool functional = true);

    /**
     * Execute @p prog against @p mem. The caller must hold the stack's
     * accelerator ownership (the runtime's mealib_acc_execute does).
     */
    ExecStats execute(const DescriptorProgram &prog, dram::PhysMem &mem);

    /** Model for one accelerator kind (for design-space queries). */
    const AccelModel &model(AccelKind kind) const;

    const ConfigCosts &costs() const { return costs_; }
    bool functional() const { return functional_; }

    /**
     * True when a pass holding only @p call over @p loop runs as one
     * block of dot products at the vector levels instead of one
     * executeComp per iteration: a LOOP of at least two iterations over
     * a conjugated complex DOT with unit
     * increments and at most mkl::kReduceChunk elements, whose in0 is
     * constant along one of the two inner loop dims and in1 along the
     * other (STAP's weights x snapshots nest), with 4-byte aligned
     * operands and an output that neither overlaps the inputs nor
     * writes one address twice. Either route gives the same bits.
     */
    static bool runsAsDotLoop(const OpCall &call, const LoopSpec &loop);

  private:
    /** Functionally compute one COMP at one loop index. */
    void executeComp(const OpCall &call,
                     const std::array<std::uint32_t, kMaxLoopDims> &idx,
                     dram::PhysMem &mem) const;

    /**
     * Functionally compute @p call over all of @p loop through
     * simd::Kernels::cdotTile when runsAsDotLoop() holds and a vector
     * level is active. Every operand's whole extent is bounds-checked
     * before anything is written. @return false, having done nothing,
     * when the pass must run per iteration.
     */
    bool executeDotLoop(const OpCall &call, const LoopSpec &loop,
                        dram::PhysMem &mem) const;

    /** Account one COMP (aggregated over @p loop) into @p stats. */
    void accountComp(const OpCall &call, const LoopSpec &loop,
                     ExecStats &stats) const;

    /** Credit for DRAM traffic avoided by hardware chaining. */
    void creditChaining(const OpCall &producer, const OpCall &consumer,
                        const LoopSpec &loop, ExecStats &stats) const;

    dram::DramParams dramParams_;
    ConfigCosts costs_;
    bool functional_;
    std::array<std::unique_ptr<AccelModel>,
               static_cast<std::size_t>(AccelKind::kCount)>
        models_;
};

} // namespace mealib::accel

#endif // MEALIB_ACCEL_LAYER_HH

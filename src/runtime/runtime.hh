/**
 * @file
 * The MEALib runtime (paper Sec. 3.3-3.5): shared memory management over
 * a unified physical address space, and the accelerator control routines
 * mealib_acc_plan / mealib_acc_execute / mealib_acc_destroy.
 *
 * MealibRuntime stands in for the device driver + runtime library pair:
 * the "driver" reserves a physically contiguous region split into a
 * command space (descriptors) and a data space (operands), and "maps" it
 * so the host touches it through virtual pointers (here: host pointers
 * into the functional arena) while accelerators use physical addresses.
 *
 * Invocation costs are accounted the way the paper measures them
 * (Sec. 5.5): cache flushing (wbinvd) before handing arrays to the
 * accelerators, descriptor copy into the command space, and the START
 * handshake.
 *
 * On top of the paper's blocking Listing-2 triple, the runtime provides
 * an asynchronous command-queue engine (docs/RUNTIME.md): accSubmit()
 * enqueues a plan on a per-stack command queue and returns an Event;
 * hazards inferred from descriptor operand intervals (RAW/WAR/WAW on
 * physical ranges) chain dependent plans while independent plans on
 * different stacks overlap, and overlap with host work submitted via
 * runOnHost(). accExecute() is a thin submit+wait wrapper, so the
 * serial cost ledger is identical to the blocking implementation.
 */

#ifndef MEALIB_RUNTIME_RUNTIME_HH
#define MEALIB_RUNTIME_RUNTIME_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "accel/descriptor.hh"
#include "accel/layer.hh"
#include "common/ledger.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/units.hh"
#include "dram/physmem.hh"
#include "dram/stack.hh"
#include "fault/fault.hh"
#include "fault/integrity.hh"
#include "host/cpu.hh"
#include "noc/mesh.hh"
#include "runtime/alloc.hh"
#include "runtime/event.hh"
#include "runtime/health.hh"
#include "runtime/journal.hh"
#include "runtime/queue.hh"
#include "runtime/residency.hh"
#include "runtime/scheduler.hh"

namespace mealib::hwmodel {
struct MachineProfile;
}

namespace mealib::runtime {

/**
 * Bind @p ledger as the calling thread's session ledger and return the
 * previous binding (null if none; null unbinds). While bound, every
 * cost the runtime posts to its aggregate ledger on this thread is
 * mirrored into @p ledger too — same sites, same order, same values —
 * so a session's ledger holds exactly its own commands' share of the
 * aggregate accounting. `mealib::Session::bind()` wraps this in an
 * RAII guard; unbound threads change nothing.
 */
EnergyLedger *bindSessionLedger(EnergyLedger *ledger);

/** The calling thread's bound session ledger (null if none). */
EnergyLedger *boundSessionLedger();

/**
 * Recovery policy for injected faults (docs/FAULTS.md): bounded retry
 * with exponential backoff for transient faults, then — if allowed —
 * transparent re-execution of the plan on the host.
 */
struct RetryPolicy
{
    /** Retries after the first failed attempt (0 = fail fast). */
    unsigned maxRetries = 3;
    /** Backoff before retry k: base * multiplier^k seconds. */
    double backoffBaseSeconds = 2.0e-6;
    double backoffMultiplier = 2.0;
    /** Re-run the plan on the host (minimkl naive-kernel cost model)
     * when the retry budget is exhausted or no stack survives. With
     * this off, exhausted commands terminate TIMED_OUT / FAILED. */
    bool hostFallback = true;
};

/** Construction parameters of the runtime. */
struct RuntimeConfig
{
    std::uint64_t backingBytes = 256_MiB; //!< functional arena size
    std::uint64_t commandBytes = 1_MiB;   //!< command space size
    unsigned numStacks = 1;               //!< memory stacks (Fig. 2)
    dram::DramParams dram;                //!< each accelerated stack
    host::CpuParams hostCpu;              //!< the host processor
    noc::MeshParams mesh;                 //!< accelerator-layer NoC
    bool functional = true;               //!< run kernels for real
    /** Inter-stack SerDes link energy (HMC-style high-speed links). */
    double linkJPerByte = 10.0_pJ;
    /** Outstanding commands each per-stack queue admits before a
     * submit stalls the host (the command-buffer size). */
    unsigned queueDepth = 8;
    /** Stack-placement policy for accSubmit(). */
    SchedulerPolicy scheduler = SchedulerPolicy::Locality;

    /** Seeded fault injection (disabled by default: all rates zero and
     * no scripted failure, so the ledger is bit-for-bit identical to a
     * fault-free build). */
    fault::FaultConfig fault;
    /** Recovery policy applied when injection is enabled. */
    RetryPolicy retry;
    /** Per-command watchdog on the simulated clock: a hung command is
     * declared dead after this long and handed to the retry policy. */
    double watchdogSeconds = 100.0e-6;

    /** End-to-end operand verification (off by default; pricing
     * resolved from the active machine profile). */
    fault::IntegrityConfig integrity;
    /** Command-granular checkpoint/replay (off by default). */
    CheckpointConfig checkpoint;
    /** Stack quarantine / re-admission policy (off by default). */
    HealthConfig health;

    /** Cross-command operand residency tracking (docs/RUNTIME.md): when
     * enabled, flushes shrink to host-dirtied intervals and integrity
     * verification skips intervals whose cached checksum is still
     * valid. Off by default (bit-for-bit identical ledger). */
    ResidencyConfig residency;

    /** Defaults from the process-wide active machine profile. */
    RuntimeConfig();

    /** Defaults from an explicit machine profile — the session path:
     * a session captures its profile once and never consults the
     * mutable active-machine global again. */
    explicit RuntimeConfig(const hwmodel::MachineProfile &machine);

    /** InvalidArgument with a descriptive message if the configuration
     * is inconsistent (zero-sized spaces, command space swallowing a
     * stack, no stacks, zero queue depth, bad fault rates or health
     * thresholds). The runtime constructor throws MealibError on a
     * non-ok validate(). */
    Status validate() const;
};

/** Opaque plan handle (the acc_plan of Listing 2). */
using AccPlanHandle = std::uint64_t;

/**
 * Cumulative accounting for the Fig. 13/14 style breakdowns. The
 * host/accel/invocation/integrity costs and total() are views of the
 * runtime's energy ledger (LedgerCosts): every modeled Cost the runtime
 * charges is posted there once, and read back from there.
 */
struct RuntimeAccounting : LedgerCosts
{
    Breakdown timeByAccel;
    Breakdown energyByAccel;

    // --- overlap-aware view (async command-queue engine) --------------
    /** Critical path: when the latest of {host track, every stack's
     * queue} finishes on the simulated timeline. For purely blocking
     * accExecute() workloads this equals total().seconds. */
    double makespanSeconds = 0.0;
    /** Host-track time spent doing work (flush/handshake/runOnHost),
     * excluding time the host waited on events or full queues. */
    double hostBusySeconds = 0.0;
    /** Per-stack accelerator busy seconds, keyed "stack0", "stack1"... */
    Breakdown busyByStack;

    // --- degraded-mode view (fault injection, docs/FAULTS.md) ---------
    /** Host seconds spent re-executing plans that fell back. */
    double fallbackSeconds = 0.0;
    /** Failed attempts absorbed by retry (incl. drained commands). */
    std::uint64_t retryCount = 0;
    /** Commands that completed via host fallback. */
    std::uint64_t fallbackCount = 0;
    /** Watchdog expirations on hung commands. */
    std::uint64_t watchdogFires = 0;
    /** In-line corrected ECC events (latency-only). */
    std::uint64_t eccCorrected = 0;

    // --- integrity / checkpoint / health view (docs/FAULTS.md) --------
    /** Silent corruptions caught by end-to-end verification. */
    std::uint64_t silentDetected = 0;
    /** Silent corruptions that sailed through (verification off). */
    std::uint64_t silentUndetected = 0;
    /** Checkpoint snapshots committed to the replay journal. */
    std::uint64_t checkpointsTaken = 0;
    /** Commands that completed by resuming from a checkpoint. */
    std::uint64_t resumedFromCheckpoint = 0;
    /** Healthy-to-quarantined transitions of the health monitor. */
    std::uint64_t quarantines = 0;
    /** Probation-to-healthy re-admissions of the health monitor. */
    std::uint64_t readmissions = 0;

    // --- reuse view (residency / fusion, docs/RUNTIME.md) --------------
    /** Flush bytes skipped because the read set was clean-on-stack. */
    std::uint64_t flushBytesElided = 0;
    /** Verification bytes skipped on cached-checksum intervals
     * (host + stack passes). */
    std::uint64_t verifyBytesElided = 0;
    /** START handshakes saved by descriptor-program fusion. */
    std::uint64_t handshakesElided = 0;
    /** Fused multi-COMP programs submitted by the dispatch layer. */
    std::uint64_t fusedPrograms = 0;
    /** accPlan() calls served from the encoded-image memo. */
    std::uint64_t planImageReuses = 0;

    /** Wall-clock saved by host/accelerator and stack/stack overlap:
     * serial total minus the overlap-aware critical path. */
    double
    overlapSavedSeconds() const
    {
        return total().seconds - makespanSeconds;
    }
};

/**
 * The MEALib runtime instance: one host, N accelerated stacks.
 *
 * Thread-safe at the submit/queue/residency/health boundaries: every
 * mutating entry point (and every scalar state reader) serializes on
 * one internal mutex, so N sessions on N threads may share a runtime
 * (docs/SESSIONS.md). Reference-returning views — accounting(),
 * ledger(), residency(), faultModel(), journal(), healthMonitor(),
 * queue() — hand out unsynchronized state: read them only at
 * quiescence (no concurrent submissions). Lock order: a session's
 * dispatcher/backend locks are always taken *before* the runtime
 * mutex, and the runtime never calls back out, so the order is
 * acyclic.
 */
class MealibRuntime
{
  public:
    explicit MealibRuntime(const RuntimeConfig &cfg);

    // --- memory management runtime routines (Sec. 3.5) ----------------

    /** mealib_mem_alloc: physically contiguous data-space allocation on
     * stack 0. @return the host-visible (virtual) pointer. */
    void *memAlloc(std::uint64_t bytes);

    /**
     * mealib_mem_alloc with an explicit memory stack (paper Sec. 3.3/
     * 3.5: "the memory stack used for allocation can be explicitly
     * specified"). Data an accelerator processes should live on its
     * Local Memory Stack; operands left on Remote Memory Stacks cross
     * the inter-stack links and pay bandwidth/energy penalties.
     */
    void *memAllocOn(unsigned stack, std::uint64_t bytes);

    /** Stack that owns physical address @p paddr. */
    unsigned stackOf(Addr paddr) const;

    /** Number of configured memory stacks. */
    unsigned numStacks() const { return cfg_.numStacks; }

    /** mealib_mem_free. */
    void memFree(void *vptr);

    /** Virtual-to-physical translation (the runtime does this when
     * filling descriptor parameter blocks). */
    Addr physOf(const void *vptr) const;

    /**
     * Non-fatal physOf: true and *paddr filled when @p vptr lies in
     * the mapped arena, false otherwise (the dispatch backend uses
     * this to decline operands not in accelerator memory).
     */
    bool tryPhysOf(const void *vptr, Addr *paddr) const;

    /** Physical-to-virtual: host pointer for an accelerator address. */
    void *virtOf(Addr paddr);

    // --- accelerator control runtime routines (Listing 2) -------------

    /** mealib_acc_plan: build the descriptor in the command space. */
    AccPlanHandle accPlan(const accel::DescriptorProgram &prog);

    /** mealib_acc_execute: flush, write START, run, poll DONE.
     * Equivalent to accSubmit() on the plan's home stack followed by
     * Event::wait(). @return the cost of this invocation (also
     * accumulated). */
    accel::ExecStats accExecute(AccPlanHandle plan);

    /** mealib_acc_destroy. */
    void accDestroy(AccPlanHandle plan);

    // --- asynchronous command-queue engine -----------------------------

    /**
     * mealib_acc_submit: enqueue @p plan on the stack the configured
     * scheduler picks and return immediately with a completion Event.
     * The command starts once its stack's queue drains to it AND every
     * hazard against earlier in-flight commands (RAW/WAR/WAW overlap of
     * descriptor operand intervals) has resolved. The host track only
     * pays the flush + handshake (and stalls while the queue is full).
     */
    Event accSubmit(AccPlanHandle plan);

    /** accSubmit() with an explicit target stack. */
    Event accSubmitOn(AccPlanHandle plan, unsigned stack);

    /** Block the host track until every in-flight command is DONE. */
    void waitAll();

    /** Home stack of a plan: where its first output operand lives. */
    unsigned homeStackOf(AccPlanHandle plan) const;

    /** Simulated host-track clock, seconds since construction/reset. */
    double
    nowSeconds() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return hostSeconds_;
    }

    /** Commands submitted and not yet waited on. */
    std::size_t
    inflightCount() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return inflight_.size();
    }

    const CommandQueue &queue(unsigned stack) const;
    const Scheduler &scheduler() const { return *sched_; }

    // --- degradation & fault injection (docs/FAULTS.md) ---------------

    /**
     * Mark @p stack permanently failed. New submissions steer away from
     * it; its queued-but-unstarted commands (and the one it was running)
     * are drained to surviving stacks — or re-executed on the host when
     * none survive — with the cost charged to the degraded-mode ledger.
     */
    void failStack(unsigned stack);

    /** @return whether @p stack has been marked failed. */
    bool stackFailed(unsigned stack) const;

    /** Stacks not marked failed. */
    unsigned healthyStackCount() const;

    /** The seeded fault injector (history log lives here). */
    const fault::FaultModel &faultModel() const { return faults_; }

    // --- integrity, checkpointing & stack health (docs/FAULTS.md) ------

    /** Lifecycle state of @p stack in the health monitor. */
    StackHealth stackHealth(unsigned stack) const;

    /** The quarantine/re-admission monitor (scores, strikes). */
    const StackHealthMonitor &healthMonitor() const { return health_; }

    /** The committed-checkpoint log. */
    const ReplayJournal &journal() const { return journal_; }

    /** Stacks neither failed nor quarantined: the set new submissions
     * are steered to. The dispatch layer divides its accelerator cost
     * estimates by selectable/total so offload decisions price in a
     * degraded substrate. */
    unsigned selectableStackCount() const;

    // --- host-side accounting ------------------------------------------

    /** Record compute-bounded work the host executed natively. The
     * host track advances, overlapping with in-flight commands. */
    Cost runOnHost(const host::KernelProfile &profile);

    /** Accumulated cost ledger. */
    const RuntimeAccounting &accounting() const { return acct_; }

    /**
     * Cross-layer energy ledger (docs/MODEL.md): the store accounting()
     * reads its costs from, so ledger().total() equals
     * accounting().total(); additionally attributes energy to physical
     * components (dram/logic/noc/link/fault/host) and aggregates
     * per-label events. External layers (the dispatcher) may note
     * their own zero-cost events.
     */
    EnergyLedger &ledger() { return acct_.ledger; }
    const EnergyLedger &ledger() const { return acct_.ledger; }

    /** Reset the cost ledger and the async timeline (queues, clocks,
     * hazard state, scheduler cursor) — not the memory state.
     * Outstanding Events become stale: waiting on them is a no-op. */
    void resetAccounting();

    // --- cross-command residency (docs/RUNTIME.md) ---------------------

    /**
     * Declare that the host wrote @p bytes starting at @p vptr. With
     * residency tracking on, the range loses its clean-on-stack and
     * verified status, so the next command touching it pays the full
     * flush/verify again. Required for correctness of the elision:
     * apps call this after every host-side store into mapped memory.
     * No-op (and free) when residency is disabled or @p vptr is not in
     * the mapped arena.
     */
    void noteHostWrite(const void *vptr, std::uint64_t bytes);

    /**
     * Record that the dispatch layer fused @p comps adjacent calls into
     * one descriptor program, saving comps-1 START handshakes. Only
     * bumps the reuse counters (the saved cost simply never accrues). */
    void noteFusion(std::uint64_t comps);

    /** The interval tracker (tests inspect clean coverage). */
    const ResidencyTracker &residency() const { return residency_; }

    const RuntimeConfig &config() const { return cfg_; }
    dram::PhysMem &mem() { return *mem_; }
    const host::CpuModel &hostModel() const { return host_; }
    accel::AcceleratorLayer &layer(unsigned stack = 0);
    dram::Stack &stack(unsigned stack = 0);
    ContigAllocator &dataAllocator() { return *dataAllocs_[0]; }

  private:
    friend class Event;

    struct Plan
    {
        accel::DescriptorProgram prog;
        Addr descAddr = 0;          //!< command-space location
        std::uint64_t descBytes = 0;
        std::uint64_t dirtyBytes = 0; //!< footprint to flush
        std::vector<AccessInterval> intervals; //!< hazard footprint

        // --- integrity & checkpoint footprint (docs/FAULTS.md) --------
        std::uint64_t expandedComps = 0; //!< loop-expanded COMP count
        bool rerunSafe = false;    //!< checkpointable (event.hh)
        std::uint64_t transferBytes = 0; //!< verified operand bytes
        std::uint64_t writeBytes = 0;    //!< journaled snapshot bytes

        // --- descriptor-image memo (accPlan, docs/RUNTIME.md) ---------
        std::uint64_t imageHash = 0; //!< programHash of prog
        bool imageCached = false;    //!< descAddr shared via images_
    };

    /** An in-flight command's hazard footprint on the timeline. */
    struct PendingAccess
    {
        AccessInterval interval;
        double finishSeconds;
        std::uint64_t owner = 0; //!< event id, for drain re-homing
    };

    /** The cross-session lock: serializes every mutating entry point
     * (submission, queues, residency, health, accounting) so N
     * sessions may share the runtime. Never held while calling out of
     * the runtime. */
    mutable std::mutex mu_;

    RuntimeConfig cfg_;
    std::unique_ptr<dram::PhysMem> mem_;
    std::vector<std::unique_ptr<dram::Stack>> stacks_;
    std::vector<std::unique_ptr<accel::AcceleratorLayer>> layers_;
    host::CpuModel host_;

    /** Remote-operand link cost for a program homed on @p home. */
    Cost remotePenalty(const accel::DescriptorProgram &prog,
                       unsigned home, double *remoteBytes) const;

    /** Home stack of a program: where its first output operand lives. */
    unsigned homeStackOf(const accel::DescriptorProgram &prog) const;

    // --- locked implementations (mu_ held by the public wrappers) ------

    Event accSubmitLocked(AccPlanHandle handle);
    Event accSubmitOnLocked(AccPlanHandle handle, unsigned stackIdx);
    void failStackLocked(unsigned stackIdx);
    const accel::ExecStats &
    eventWaitLocked(const std::shared_ptr<detail::EventState> &state);

    /**
     * The one place a modeled Cost accumulates: post @p c to @p track
     * of the runtime's ledger (event @p label), attribute @p energy
     * (component -> joules) and record @p flops of useful work, then
     * mirror the same updates into the calling thread's bound session
     * ledger, if any (docs/SESSIONS.md).
     */
    void charge(const std::string &track, const Cost &c,
                const std::string &label, const Breakdown &energy = {},
                double flops = 0.0);

    /** Advance the host track doing work (counts as busy time). */
    void hostWork(double seconds);

    /** Advance the host track to @p seconds if later (waiting). */
    void hostWaitUntil(double seconds);

    /** Fold the current timeline frontier into the makespan. */
    void updateMakespan();

    /** Event::wait() implementation. */
    const accel::ExecStats &
    eventWait(const std::shared_ptr<detail::EventState> &state);

    // --- fault handling (docs/FAULTS.md) -------------------------------

    /** Fire the scripted stack failure once its command index passes. */
    void applyScriptedFailure();

    /** Terminal FAILED event for an invalid submission; not enqueued. */
    Event submitError(Status status);

    /** Re-execute, on the host track, a plan whose accelerator run
     * produced @p es (priced by the minimkl naive-kernel cost model)
     * and charge it as a fault fallback. @return its cost. */
    Cost fallBackToHost(const accel::ExecStats &es);

    /** Execute @p plan entirely on the host track (no healthy stack).
     * @p cmd is the global submission index, @p retries the attempts
     * already burned on an accelerator before falling back. */
    Event submitOnHost(Plan &plan, unsigned targetStack,
                       unsigned retries);

    /** Resolve the retry ladder of command @p cmd on @p stackIdx.
     * On success, returns the total stack occupancy; on exhaustion,
     * occupancy covers the failed attempts and @p outLastFault is set. */
    struct Attempts
    {
        bool success = true;
        unsigned retries = 0;
        double occupancySeconds = 0.0; //!< stack time incl. clean span
        Cost penalty;                  //!< extra over the clean cost
        fault::FaultKind lastFault = fault::FaultKind::None;
        Cost integrity;       //!< verify + journal cost (in occupancy)
        std::uint64_t checkpoints = 0; //!< snapshots written
        bool resumed = false; //!< some attempt started mid-span
        std::uint64_t silentDetected = 0;
        std::uint64_t silentUndetected = 0;
        /** Span fraction covered by a committed checkpoint when the
         * ladder ends (replay journal position on exhaustion). */
        double committedFraction = 0.0;
    };
    Attempts resolveAttempts(std::uint64_t cmd, unsigned stackIdx,
                             double spanSeconds, double accelJoules,
                             const Plan &plan,
                             std::uint64_t effVerifyBytes);

    /** Whether @p plan is checkpointed when running on the runtime's
     * current configuration. */
    bool checkpointed(const Plan &plan) const;

    /** Modeled cost of writing one checkpoint snapshot of @p plan. */
    Cost snapshotCost(const Plan &plan) const;

    /** Health-monitor bookkeeping for one resolved command: feed the
     * outcome, apply quarantine/re-admission to the scheduler, and
     * @return a stack to permanently fail (kNone if none). */
    unsigned recordHealth(unsigned stackIdx, std::uint64_t cmd,
                          bool faulted);

    /** One memoized descriptor image in the command space. */
    struct CachedImage
    {
        Addr descAddr = 0;
        std::uint64_t descBytes = 0;
        unsigned refs = 0;          //!< live plans sharing the image
        std::uint64_t lastUse = 0;  //!< for dead-entry LRU eviction
        accel::DescriptorProgram prog; //!< hash-collision guard
    };

    /** Free dead (refs == 0) memoized images; @p keep newest retained.
     * @return bytes returned to the command space. */
    std::uint64_t evictDeadImages(std::size_t keep);

    std::unique_ptr<ContigAllocator> cmdAlloc_;
    std::vector<std::unique_ptr<ContigAllocator>> dataAllocs_;
    std::map<AccPlanHandle, Plan> plans_;
    std::map<std::uint64_t, CachedImage> images_; //!< hash -> image
    std::uint64_t imageUseTick_ = 0;
    AccPlanHandle nextHandle_ = 1;
    RuntimeAccounting acct_;

    // --- async timeline state (reset by resetAccounting) ---------------
    std::unique_ptr<Scheduler> sched_;
    std::vector<CommandQueue> queues_;
    double hostSeconds_ = 0.0;
    std::vector<PendingAccess> pending_;
    std::vector<std::shared_ptr<detail::EventState>> inflight_;
    std::uint64_t nextEventId_ = 1;
    std::uint64_t epoch_ = 0; //!< bumped by resetAccounting

    // --- fault-injection state (reset by resetAccounting) --------------
    fault::FaultModel faults_;
    noc::Mesh mesh_; //!< CRC replay penalties on the SerDes/NoC links
    std::uint64_t cmdIndex_ = 0;   //!< global submission counter

    // --- integrity/checkpoint/health state (reset by resetAccounting) --
    StackHealthMonitor health_;
    ReplayJournal journal_;

    // --- residency state (reset by resetAccounting) --------------------
    ResidencyTracker residency_;
};

} // namespace mealib::runtime

#endif // MEALIB_RUNTIME_RUNTIME_HH

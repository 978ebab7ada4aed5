/**
 * @file
 * AccelBackend over the MEALib runtime.
 *
 * Translates an OpDesc into a descriptor program — host operand
 * pointers become physical stack addresses via MealibRuntime::
 * tryPhysOf(); null pointers keep the bases preset in the OpCall (the
 * TDL path) — submits it on the PR-1 command queues, and reports the
 * Event outcome as a Status. Operands outside the runtime arena make
 * canMap() false, so the dispatcher records an unmappable fallback and
 * runs the host kernel before anything is submitted.
 *
 * With a fusion window > 1 the backend batches adjacent accel-decided
 * calls homed on the same stack into ONE multi-COMP descriptor program
 * (docs/DISPATCH.md): the chain pays a single flush + START handshake
 * instead of one per call. The window flushes when it fills, when a
 * call for a different home stack arrives, or on sync() — which the
 * dispatcher invokes before any host kernel runs and on detach, so
 * host code never reads a buffered-but-unexecuted result. Functional
 * results are bit-for-bit identical to the unfused path (the runtime
 * executes COMPs in program order either way).
 */

#ifndef MEALIB_DISPATCH_BACKEND_HH
#define MEALIB_DISPATCH_BACKEND_HH

#include <mutex>
#include <vector>

#include "dispatch/dispatcher.hh"
#include "runtime/runtime.hh"

namespace mealib::dispatch {

/** Dispatcher backend executing descriptors on a MealibRuntime. */
class RuntimeBackend final : public AccelBackend
{
  public:
    /** @p rt must outlive the backend (and be functional for the
     * results to be real; a cost-only runtime models time/energy but
     * leaves the output buffers untouched). @p fusionWindow is the
     * maximum COMPs batched into one descriptor program; 1 (and 0)
     * disables fusion: every call is its own program. */
    explicit RuntimeBackend(runtime::MealibRuntime &rt,
                            unsigned fusionWindow = 1)
        : rt_(rt), window_(fusionWindow < 1 ? 1 : fusionWindow)
    {
    }

    ~RuntimeBackend() override { sync(); }

    const char *name() const override { return "mealib-runtime"; }

    Status execute(const OpDesc &desc) override;

    /** True when every host operand lies in the runtime arena. */
    bool
    canMap(const OpDesc &desc) const override
    {
        accel::OpCall call;
        return mapCall(desc, &call).ok();
    }

    /** Submit every buffered call as one fused program. Safe to call
     * with an empty window. The flush outcome only shapes modeled cost
     * and telemetry — functional results are computed regardless. */
    void sync() override;

    /** Selectable (not failed, not quarantined) stacks over total, so
     * the dispatcher's cost comparisons track substrate health. */
    double
    healthyFraction() const override
    {
        const unsigned total = rt_.numStacks();
        if (total == 0)
            return 0.0;
        return static_cast<double>(rt_.selectableStackCount()) / total;
    }

    unsigned fusionWindow() const { return window_; }

    /** Calls currently buffered (tests inspect the window state). */
    std::size_t
    pendingCount() const
    {
        std::lock_guard<std::mutex> lock(wmu_);
        return pending_.size();
    }

    runtime::MealibRuntime &runtime() { return rt_; }

  private:
    /** One buffered accel-decided call. */
    struct PendingCall
    {
        accel::OpCall call;
        accel::LoopSpec loop;
    };

    /** Map host operand pointers to physical bases; decline when an
     * operand is outside the accelerator arena. */
    Status mapCall(const OpDesc &desc, accel::OpCall *out) const;

    /** Build + submit one program from the buffered calls. Requires
     * wmu_ held; calls into the (internally locked) runtime — lock
     * order is backend window → runtime, never the reverse. */
    Status flushPendingLocked();

    runtime::MealibRuntime &rt_;
    unsigned window_ = 1;
    /** Guards the fusion window (pending_/home_): a session's
     * dispatcher may be driven by several threads at once. */
    mutable std::mutex wmu_;
    unsigned home_ = 0; //!< home stack of the buffered calls
    std::vector<PendingCall> pending_;
};

} // namespace mealib::dispatch

#endif // MEALIB_DISPATCH_BACKEND_HH

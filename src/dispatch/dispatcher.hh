/**
 * @file
 * The dispatch seam (docs/DISPATCH.md).
 *
 * Every MKL-compatible entry point, the s2s-rewritten call sites and
 * the evaluation tools lower their calls into an OpDesc and hand it to
 * a Dispatcher. The dispatcher asks its OffloadPolicy for a side,
 * executes — hostFn for the host side, the attached AccelBackend for
 * the accelerator side — falls back to the host when the backend
 * declines or fails (when that is safe), and records telemetry.
 *
 * The process-wide instance (Dispatcher::global()) is configured from
 * MEALIB_OFFLOAD_POLICY and defaults to HostOnly with no backend
 * attached: exactly the legacy behaviour, bit for bit.
 */

#ifndef MEALIB_DISPATCH_DISPATCHER_HH
#define MEALIB_DISPATCH_DISPATCHER_HH

#include <memory>
#include <mutex>
#include <type_traits>

#include "common/ledger.hh"
#include "common/status.hh"
#include "dispatch/policy.hh"
#include "dispatch/telemetry.hh"

namespace mealib::dispatch {

/**
 * An execution target for accel-decided descriptors. The runtime
 * backend (dispatch/backend.hh) adapts MealibRuntime; tests plug in
 * fakes. execute() must either complete the operation with the same
 * result the host path would produce, or return a non-ok Status having
 * made no externally visible writes.
 */
class AccelBackend
{
  public:
    virtual ~AccelBackend() = default;
    virtual const char *name() const = 0;
    virtual Status execute(const OpDesc &desc) = 0;

    /**
     * Whether execute() can translate every operand of @p desc. A false
     * answer is a pre-execution decline: the dispatcher records
     * FallbackReason::Unmappable and runs the host path, whatever the
     * op's rerunSafe. Default: every operand maps.
     */
    virtual bool canMap(const OpDesc &) const { return true; }

    /**
     * Materialize every buffered execution. Backends that batch calls
     * (the runtime backend's fusion window) may return from execute()
     * with work still pending; the dispatcher syncs before any host
     * kernel runs (and on detach), so host code never observes a
     * buffered-but-unexecuted result. Default: no-op.
     */
    virtual void sync() {}

    /**
     * Fraction of the accelerator substrate currently able to take new
     * work, in [0, 1] (selectable stacks / total stacks for the runtime
     * backend: failed and quarantined stacks don't count). The
     * dispatcher divides modeled accelSeconds by this so offload
     * decisions price in a degraded substrate; 0 prices every accel
     * estimate at +inf.
     */
    virtual double healthyFraction() const { return 1.0; }
};

/**
 * Non-owning reference to a `void()` callable: two words, no heap. The
 * callable must outlive the call it is passed to, which a lambda
 * argument of Dispatcher::run always does.
 */
class HostFn
{
  public:
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, HostFn> &&
                 std::is_invocable_v<F &>)
    HostFn(F &&fn)
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(fn)))),
          call_([](void *obj) {
              (*static_cast<std::remove_reference_t<F> *>(obj))();
          })
    {
    }

    void operator()() const { call_(obj_); }

  private:
    void *obj_;
    void (*call_)(void *);
};

/** Policy-driven host/accelerator dispatch with telemetry. */
class Dispatcher
{
  public:
    /** Starts with HostOnly, no cost model, no backend. */
    Dispatcher();
    explicit Dispatcher(std::unique_ptr<OffloadPolicy> policy);

    /** Swap the decision policy (null resets to HostOnly). */
    void setPolicy(std::unique_ptr<OffloadPolicy> policy);
    OffloadPolicy &policy();

    /** Cost oracle handed to model-driven policies (may be null). */
    void setCostModel(std::shared_ptr<const CostModel> costs);

    /**
     * Attach / detach the accelerator backend. Not owned; the caller
     * must detach before destroying the backend. With no backend, every
     * accel decision falls back to the host (FallbackReason::NoBackend).
     */
    void attachBackend(AccelBackend *backend);
    void detachBackend();
    bool hasBackend() const;

    /**
     * Attach / detach an energy ledger (not owned; detach before
     * destroying it). Each decision and fallback is recorded as a
     * zero-cost note ("dispatch/<kind>/<side>"), so a run's JSON shows
     * where every call went without perturbing the cost totals.
     */
    void attachLedger(EnergyLedger *ledger);
    void detachLedger();

    /**
     * Execute @p desc: ask the policy for a side, then run @p hostFn
     * (host) or the backend (accel). A declined or failed offload
     * reruns @p hostFn when @p desc.rerunSafe; otherwise backend
     * *errors* propagate as MealibError (declines — no backend,
     * unsupported, unmappable — are detected before any execution and
     * always fall back). @p hostFn is borrowed, not copied: a call on
     * the host side allocates nothing.
     */
    void run(const OpDesc &desc, HostFn hostFn);

    /** Copy of the accumulated telemetry. */
    DispatchStats snapshot() const;
    void resetStats();

    /**
     * The default-session dispatcher: used by the MKL-compatible layer
     * and dispatch::ops whenever the calling thread has no dispatcher
     * bound (see currentDispatcher()). Policy from
     * MEALIB_OFFLOAD_POLICY (read once, at first use),
     * RooflineCostModel attached, no backend. A function-local static
     * object, so it is destroyed cleanly at exit (no LSan leak).
     */
    static Dispatcher &global();

  private:
    Backend decideLocked(const OpDesc &desc);

    mutable std::mutex mu_;
    std::unique_ptr<OffloadPolicy> policy_;
    std::shared_ptr<const CostModel> costs_;
    AccelBackend *backend_ = nullptr;
    EnergyLedger *ledger_ = nullptr;
    DispatchStats stats_;
};

/**
 * Bind @p dispatcher as the calling thread's current dispatcher and
 * return the previous binding (null if none). Passing null unbinds.
 * The MKL-compatible shims and dispatch::ops route through
 * currentDispatcher(), so a thread bound to a session's dispatcher
 * routes unmodified legacy calls to that session; unbound threads keep
 * using Dispatcher::global() — exactly the legacy behaviour.
 * `mealib::Session::bind()` wraps this in an RAII guard.
 */
Dispatcher *bindCurrentDispatcher(Dispatcher *dispatcher);

/** The calling thread's dispatcher: its binding, else global(). */
Dispatcher &currentDispatcher();

/** Whether the calling thread has an explicit dispatcher binding. */
bool hasBoundDispatcher();

} // namespace mealib::dispatch

#endif // MEALIB_DISPATCH_DISPATCHER_HH

/**
 * @file
 * Re-entrant session contexts for multi-tenant MEALib
 * (docs/SESSIONS.md).
 *
 * A Session is the per-client view of the shared accelerator stack:
 * it bundles an immutable MachineProfile handle (captured at
 * construction, pinned against setActiveMachine for its lifetime), a
 * private Dispatcher with its own offload policy, cost model,
 * telemetry and fusion window, a reference to the shared — internally
 * locked — MealibRuntime, and a per-session EnergyLedger that receives
 * exactly this session's share of the runtime's aggregate accounting.
 *
 * Unmodified MKL-signature callers reach their session through
 * thread binding: Session::bind() returns an RAII guard that routes
 * the calling thread's cblas_/fftwf_/mkl_ calls (and dispatch::ops)
 * through this session's dispatcher and mirrors runtime cost posts
 * into this session's ledger. N threads bound to N sessions share one
 * runtime without racing on cost models, telemetry or ledgers; an
 * unbound thread keeps the legacy behaviour (Dispatcher::global(),
 * aggregate ledger only) bit for bit.
 */

#ifndef MEALIB_SESSION_SESSION_HH
#define MEALIB_SESSION_SESSION_HH

#include <memory>
#include <string>

#include "common/ledger.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/models.hh"
#include "hwmodel/profile.hh"
#include "runtime/runtime.hh"

namespace mealib {

/** Construction knobs of a Session. */
struct SessionOptions
{
    /**
     * Offload policy name ("host", "accel", "crossover", "calibrated");
     * empty resolves MEALIB_OFFLOAD_POLICY exactly like the default
     * dispatcher. Unknown names fall back to host-only.
     */
    std::string policy;

    /** COMPs batched into one fused descriptor program by this
     * session's backend, and the window its cost model amortizes the
     * invocation overhead over; values below 1 mean 1 (no fusion). */
    unsigned fusionWindow = 1;

    /** Attach the session's RuntimeBackend to its dispatcher so accel
     * decisions execute on the shared runtime. Off leaves the
     * dispatcher backend-less (every accel decision falls back to the
     * host path — the legacy default-dispatcher shape). */
    bool attachBackend = true;
};

/**
 * RAII thread binding: while alive, the constructing thread's
 * MKL-compatible calls route through the session's dispatcher and the
 * runtime mirrors its cost posts into the session's ledger. Restores
 * the previous bindings on destruction (bindings nest). Move-only;
 * must be destroyed on the thread that created it.
 */
class SessionBinding
{
  public:
    SessionBinding(dispatch::Dispatcher *dispatcher,
                   EnergyLedger *ledger);
    ~SessionBinding();

    SessionBinding(SessionBinding &&other) noexcept;
    SessionBinding &operator=(SessionBinding &&) = delete;
    SessionBinding(const SessionBinding &) = delete;
    SessionBinding &operator=(const SessionBinding &) = delete;

  private:
    bool active_ = false;
    dispatch::Dispatcher *prevDispatcher_ = nullptr;
    EnergyLedger *prevLedger_ = nullptr;
};

/** One client's context over the shared MEALib stack. */
class Session
{
  public:
    /**
     * Open a session over @p rt. Captures the active machine profile
     * (and pins it: hwmodel::setActiveMachine refuses while the
     * session is live), builds the dispatcher from @p opts, and — with
     * opts.attachBackend — wires a RuntimeBackend plus the session
     * ledger into it. @p rt must outlive the session.
     */
    explicit Session(runtime::MealibRuntime &rt,
                     const SessionOptions &opts = SessionOptions{});

    /** Open a session with an explicit (registry) machine profile. */
    Session(runtime::MealibRuntime &rt,
            const hwmodel::MachineProfile &machine,
            const SessionOptions &opts);

    /** Flushes the fusion window and unpins the machine profile.
     * Every binding must be destroyed first. */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Bind the calling thread to this session (see SessionBinding).
     * One session may be bound on several threads at once — its
     * dispatcher, backend window and ledger are internally locked.
     */
    SessionBinding bind();

    /** The profile this session prices against (never changes). */
    const hwmodel::MachineProfile &machine() const { return machine_; }

    /** This session's private dispatcher. */
    dispatch::Dispatcher &dispatcher() { return dispatcher_; }

    /** The shared runtime this session submits to. */
    runtime::MealibRuntime &runtime() { return rt_; }

    /**
     * This session's cost ledger: every runtime post caused by a
     * thread bound to this session, plus the dispatcher's zero-cost
     * decision notes. ledger().total() is exactly this session's share
     * of the runtime's aggregate accounting total.
     */
    EnergyLedger &ledger() { return ledger_; }
    const EnergyLedger &ledger() const { return ledger_; }

    /** Materialize every fused call still buffered in the backend. */
    void sync();

  private:
    void init(const SessionOptions &opts);

    runtime::MealibRuntime &rt_;
    const hwmodel::MachineProfile &machine_;
    EnergyLedger ledger_;
    dispatch::Dispatcher dispatcher_;
    std::unique_ptr<dispatch::RuntimeBackend> backend_;
};

} // namespace mealib

#endif // MEALIB_SESSION_SESSION_HH

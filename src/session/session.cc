#include "session/session.hh"

#include "dispatch/policy.hh"

namespace mealib {

SessionBinding::SessionBinding(dispatch::Dispatcher *dispatcher,
                               EnergyLedger *ledger)
    : active_(true),
      prevDispatcher_(dispatch::bindCurrentDispatcher(dispatcher)),
      prevLedger_(runtime::bindSessionLedger(ledger))
{
}

SessionBinding::~SessionBinding()
{
    if (!active_)
        return;
    dispatch::bindCurrentDispatcher(prevDispatcher_);
    runtime::bindSessionLedger(prevLedger_);
}

SessionBinding::SessionBinding(SessionBinding &&other) noexcept
    : active_(other.active_), prevDispatcher_(other.prevDispatcher_),
      prevLedger_(other.prevLedger_)
{
    other.active_ = false;
}

Session::Session(runtime::MealibRuntime &rt, const SessionOptions &opts)
    : Session(rt, hwmodel::activeProfile(), opts)
{
}

Session::Session(runtime::MealibRuntime &rt,
                 const hwmodel::MachineProfile &machine,
                 const SessionOptions &opts)
    : rt_(rt), machine_(machine)
{
    // The profile is captured by reference into the cost model below;
    // pinning keeps setActiveMachine from repricing it underneath us.
    hwmodel::pinActiveMachine();
    init(opts);
}

void
Session::init(const SessionOptions &opts)
{
    auto policy = opts.policy.empty()
                      ? dispatch::policyFromEnv()
                      : dispatch::makePolicy(opts.policy);
    dispatcher_.setPolicy(std::move(policy)); // null resets to HostOnly
    auto costs = std::make_shared<dispatch::RooflineCostModel>(machine_);
    costs->setFusionWindow(opts.fusionWindow);
    dispatcher_.setCostModel(std::move(costs));
    dispatcher_.attachLedger(&ledger_);
    if (opts.attachBackend) {
        backend_ = std::make_unique<dispatch::RuntimeBackend>(
            rt_, opts.fusionWindow);
        dispatcher_.attachBackend(backend_.get());
    }
}

Session::~Session()
{
    // detachBackend syncs the fusion window; the flush's runtime posts
    // must land in this session's ledger even when the destructing
    // thread holds no binding.
    SessionBinding flushScope(&dispatcher_, &ledger_);
    dispatcher_.detachBackend();
    dispatcher_.detachLedger();
    backend_.reset();
    hwmodel::unpinActiveMachine();
}

SessionBinding
Session::bind()
{
    return SessionBinding(&dispatcher_, &ledger_);
}

void
Session::sync()
{
    SessionBinding flushScope(&dispatcher_, &ledger_);
    if (backend_)
        backend_->sync();
}

} // namespace mealib

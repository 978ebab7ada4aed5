#include "dispatch/policy.hh"

#include <cmath>
#include <limits>

#include "common/cli.hh"

namespace mealib::dispatch {

const char *
name(Backend backend)
{
    return backend == Backend::Host ? "host" : "accel";
}

Backend
CrossoverModel::decide(const OpDesc &desc, const CostModel *costs)
{
    if (!desc.accelSupported || costs == nullptr)
        return Backend::Host;
    double host = costs->hostSeconds(desc);
    double accel = costs->accelSeconds(desc);
    return accel < host ? Backend::Accel : Backend::Host;
}

Backend
Calibrated::decide(const OpDesc &desc, const CostModel *costs)
{
    KindState &ks = state_[static_cast<std::size_t>(desc.kind)];
    if (!desc.accelSupported || costs == nullptr)
        return Backend::Host;
    if (ks.calls >= window_)
        return ks.choice;

    ks.calls++;
    ks.hostSeconds += costs->hostSeconds(desc);
    double accel = costs->accelSeconds(desc);
    ks.accelSeconds += std::isfinite(accel)
                           ? accel
                           : std::numeric_limits<double>::max() / 1e6;
    ks.choice = ks.accelSeconds < ks.hostSeconds ? Backend::Accel
                                                 : Backend::Host;
    // During calibration, follow the running tally.
    return ks.choice;
}

bool
Calibrated::sticky(OpKind kind) const
{
    return state_[static_cast<std::size_t>(kind)].calls >= window_;
}

std::unique_ptr<OffloadPolicy>
makePolicy(const std::string &name)
{
    if (name == "host")
        return std::make_unique<HostOnly>();
    if (name == "accel")
        return std::make_unique<AccelAlways>();
    if (name == "crossover")
        return std::make_unique<CrossoverModel>();
    if (name == "calibrated")
        return std::make_unique<Calibrated>();
    return nullptr;
}

std::unique_ptr<OffloadPolicy>
policyFromEnv()
{
    return makePolicy(envValue(envFlag(Env::OffloadPolicy)));
}

} // namespace mealib::dispatch

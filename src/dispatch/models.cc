#include "dispatch/models.hh"

#include <algorithm>
#include <limits>

#include "accel/config.hh"

namespace mealib::dispatch {

const hwmodel::MachineProfile &
machineFor(HostKind host)
{
    return hwmodel::profile(host == HostKind::XeonPhi ? "xeonphi5110p"
                                                      : "haswell4770k");
}

HostOpProfile
hostOpProfile(HostKind host, accel::AccelKind kind)
{
    // The calibration tables live in the machine profiles
    // (src/hwmodel/profile.cc) so dispatch, eval and the benches price
    // host execution from the same source.
    return machineFor(host).opEfficiency(kind);
}

host::KernelProfile
hostKernelProfile(const hwmodel::MachineProfile &m,
                  const accel::OpCall &call, const accel::LoopSpec &loop)
{
    const HostOpProfile &p = m.opEfficiency(call.kind);
    double iters = static_cast<double>(loop.iterations());

    host::KernelProfile k;
    k.name = accel::name(call.kind);
    k.flops = call.flops() * iters;
    // Reuse-aware traffic: loop dimensions with zero operand stride hit
    // the host's caches, symmetric with the accelerator-side modeling.
    double traffic =
        accel::loopedTrafficBytes(call, loop) * p.trafficFactor;
    k.bytesRead = traffic * 0.75;
    k.bytesWritten = traffic * 0.25;
    k.simdEff = p.simdEff;
    // Short vectors leave the SIMD pipeline mostly empty (ramp-up,
    // horizontal reductions): the 36-element STAP dots reach a fraction
    // of the streaming kernels' issue efficiency.
    if (call.n < m.shortVectorElems)
        k.simdEff *= m.shortVectorSimdFactor;
    k.memEff = p.memEff;
    k.parallelFraction = p.parallelFraction;
    // Library call dispatch + thread wakeup; heavier on the Phi.
    k.callOverheads = m.callOverheadSeconds;
    return k;
}

host::KernelProfile
hostKernelProfile(HostKind host, const accel::OpCall &call,
                  const accel::LoopSpec &loop)
{
    return hostKernelProfile(machineFor(host), call, loop);
}

RooflineCostModel::RooflineCostModel()
    : RooflineCostModel(hwmodel::activeProfile())
{
}

RooflineCostModel::RooflineCostModel(
    const hwmodel::MachineProfile &machine)
    : machine_(machine), cpu_(machine.cpu)
{
}

const accel::AccelModel &
RooflineCostModel::accelModel(accel::AccelKind kind) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = accel_[static_cast<std::size_t>(kind)];
    if (!slot)
        slot = std::make_unique<accel::AccelModel>(
            kind, accel::defaultConfig(kind), machine_.stackDram,
            machine_.mesh);
    return *slot;
}

double
RooflineCostModel::hostSeconds(const OpDesc &desc) const
{
    host::KernelProfile p;
    if (accelerable(desc.kind)) {
        p = hostKernelProfile(machine_, desc.call, desc.loop);
    } else {
        // Host-only kinds (GEMM, HERK, TRSM, SCAL, COPY): build a
        // generic profile from the descriptor's flop/byte overrides.
        // Efficiencies are MKL-level-3-ish; these kinds are only ever
        // priced so the policy can confirm they stay on the host.
        p.name = name(desc.kind);
        p.flops = desc.flops();
        double traffic = desc.bytes();
        p.bytesRead = traffic * 0.75;
        p.bytesWritten = traffic * 0.25;
        p.simdEff = 0.8;
        p.memEff = 0.6;
        p.parallelFraction = 0.95;
        p.callOverheads = machine_.callOverheadSeconds;
    }
    return cpu_.run(p).seconds;
}

void
RooflineCostModel::setFusionWindow(unsigned window)
{
    std::lock_guard<std::mutex> lock(mu_);
    fusionWindow_ = window < 1 ? 1 : window;
}

unsigned
RooflineCostModel::fusionWindow() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fusionWindow_;
}

double
RooflineCostModel::accelSeconds(const OpDesc &desc) const
{
    if (!desc.accelSupported || !accelerable(desc.kind))
        return std::numeric_limits<double>::infinity();

    const unsigned window = fusionWindow();
    accel::AccelEstimate e =
        accelModel(accelKindOf(desc.kind)).estimate(desc.call, desc.loop);
    // Invocation overhead: the host must flush the input footprint out
    // of its caches before the memory-side units read DRAM directly,
    // then copy the descriptor and ring the START doorbell.
    double inputs = desc.call.inputBytes() *
                    static_cast<double>(desc.loop.iterations());
    // Loop reuse keeps the footprint smaller than inputs x iterations;
    // never flush more than the reuse-aware traffic of the whole plan.
    inputs = std::min(inputs, accel::loopedTrafficBytes(desc.call,
                                                        desc.loop));
    double flush =
        cpu_.flushCost(static_cast<std::uint64_t>(inputs)).seconds;
    // With a fusion window the backend packs up to `window` adjacent
    // calls into one descriptor program: one flush + handshake per
    // window instead of per call.
    return e.total.seconds +
           (flush + kHandshakeSeconds) / static_cast<double>(window);
}

} // namespace mealib::dispatch

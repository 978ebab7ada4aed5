/**
 * @file
 * Cost models behind the model-driven offload policies.
 *
 * The per-operation host execution profiles (formerly private to
 * src/mealib/platform.cc) live here so the dispatcher, the eval layer
 * and the benches price host execution identically. RooflineCostModel
 * combines the Haswell roofline CPU model with the MEALib accelerator
 * model (HMC stack) and adds the invocation overhead — cache flush of
 * the input footprint plus the descriptor/START handshake — so the
 * crossover policy reproduces the paper's shape: small calls stay on
 * the host, large memory-bounded calls offload.
 */

#ifndef MEALIB_DISPATCH_MODELS_HH
#define MEALIB_DISPATCH_MODELS_HH

#include <array>
#include <memory>
#include <mutex>

#include "accel/model.hh"
#include "dispatch/policy.hh"
#include "host/cpu.hh"
#include "hwmodel/profile.hh"

namespace mealib::dispatch {

/** The two host platforms of Table 3. */
enum class HostKind
{
    Haswell, //!< Intel i7-4770K (the baseline MKL host)
    XeonPhi, //!< Xeon Phi 5110P
};

/** The registry profile behind @p host (haswell4770k / xeonphi5110p). */
const hwmodel::MachineProfile &machineFor(HostKind host);

/** The calibration tables now live in the hardware-model registry. */
using HostOpProfile = hwmodel::HostOpEfficiency;

/** Calibration entry for @p kind on @p host. */
HostOpProfile hostOpProfile(HostKind host, accel::AccelKind kind);

/**
 * Full host execution profile of @p call iterated over @p loop —
 * the record host::CpuModel::run() prices.
 */
host::KernelProfile hostKernelProfile(HostKind host,
                                      const accel::OpCall &call,
                                      const accel::LoopSpec &loop);

/** hostKernelProfile() against an explicit machine profile. */
host::KernelProfile hostKernelProfile(const hwmodel::MachineProfile &m,
                                      const accel::OpCall &call,
                                      const accel::LoopSpec &loop);

/**
 * The dispatcher's default cost oracle: Haswell roofline for the host
 * side, the MEALib accelerator model (HMC stack, Table-3 MEALib column)
 * plus invocation overhead for the accelerator side. Policies price the
 * same kernel in a loop thousands of times (CG), so the model keeps one
 * AccelModel per accelerator kind: each remembers the DRAM replay of
 * the call shapes it has priced, keyed on everything the trace reads.
 * Safe to call from several threads.
 */
class RooflineCostModel final : public CostModel
{
  public:
    /** Price against the active machine profile (MEALIB_MACHINE). */
    RooflineCostModel();

    /** Price against an explicit machine profile. @p machine must
     * outlive the model (registry profiles always do). */
    explicit RooflineCostModel(const hwmodel::MachineProfile &machine);

    double hostSeconds(const OpDesc &desc) const override;
    double accelSeconds(const OpDesc &desc) const override;

    /**
     * Amortize the per-invocation overhead (flush + handshake) over a
     * fusion window of @p window calls: with the runtime backend fusing
     * adjacent same-stack calls into one descriptor program, only one
     * invocation is paid per window. @p window < 1 is treated as 1 (no
     * fusion — the exact legacy pricing).
     */
    void setFusionWindow(unsigned window);
    unsigned fusionWindow() const;

    const hwmodel::MachineProfile &machine() const { return machine_; }

    /** Fixed per-invocation accelerator overhead (descriptor copy +
     * START handshake), excluding the size-dependent cache flush. */
    static constexpr double kHandshakeSeconds =
        hwmodel::kHandshakeSeconds;

  private:
    /** The model of @p kind's accelerator, built on first use. */
    const accel::AccelModel &accelModel(accel::AccelKind kind) const;

    const hwmodel::MachineProfile &machine_;
    host::CpuModel cpu_;
    /** Guards fusionWindow_ and the accelerator slots; each AccelModel
     * locks its own estimate. */
    mutable std::mutex mu_;
    unsigned fusionWindow_ = 1;
    mutable std::array<std::unique_ptr<accel::AccelModel>,
                       static_cast<std::size_t>(accel::AccelKind::kCount)>
        accel_;
};

} // namespace mealib::dispatch

#endif // MEALIB_DISPATCH_MODELS_HH

/**
 * @file
 * The machine-profile registry: the single source of truth for every
 * timing, power and energy constant of the reproduction (docs/MODEL.md).
 *
 * A MachineProfile bundles one complete evaluation machine: the host
 * processor of Table 3, its per-operation library-call efficiencies
 * (the calibration that substitutes for the paper's native
 * measurements), and the accelerated memory substrate (HMC stack +
 * accelerator-layer NoC). Named profiles `haswell4770k` and
 * `xeonphi5110p` are built in; the active profile is selected by the
 * MEALIB_MACHINE environment variable or `mealib-run --machine`, and
 * defaults to the Haswell machine — the paper's baseline.
 *
 * The legacy per-module preset factories (dram::hmcStack(),
 * host::haswell4770k(), noc::mealibMesh(), accel::defaultConfig()/
 * synthesis()) forward here, so the constants exist exactly once; the
 * model layers keep consuming plain parameter structs and stay
 * registry-agnostic.
 */

#ifndef MEALIB_HWMODEL_PROFILE_HH
#define MEALIB_HWMODEL_PROFILE_HH

#include <array>
#include <string>
#include <vector>

#include "accel/config.hh"
#include "accel/ops.hh"
#include "common/status.hh"
#include "dram/params.hh"
#include "host/cpu.hh"
#include "hwmodel/constants.hh"
#include "noc/mesh.hh"

namespace mealib::hwmodel {

/**
 * Per-operation host execution efficiencies. These substitute for the
 * paper's native measurement (we have no i7-4770K/RAPL); the factors
 * are calibrated against the paper's Fig. 9/10 bands (EXPERIMENTS.md).
 */
struct HostOpEfficiency
{
    double trafficFactor; //!< host DRAM traffic vs. accelerator traffic
    double memEff;        //!< fraction of peak bandwidth sustained
    double simdEff;       //!< fraction of peak issue sustained
    double parallelFraction;
};

inline constexpr std::size_t kNumAccelKinds =
    static_cast<std::size_t>(accel::AccelKind::kCount);

/** One complete evaluation machine (Table 3 column + substrate). */
struct MachineProfile
{
    std::string name; //!< canonical registry name

    // --- host side -----------------------------------------------------
    host::CpuParams cpu; //!< Table 3 host processor
    /** Library-call dispatch + thread-wakeup time per call. */
    double callOverheadSeconds = 5.0e-6;
    /** Vectors shorter than this leave the SIMD pipeline mostly empty
     * (ramp-up, horizontal reductions)... */
    std::uint64_t shortVectorElems = 256;
    /** ...and reach only this fraction of the streaming issue rate. */
    double shortVectorSimdFactor = 0.4;
    /** Per-operation efficiency calibration, indexed by AccelKind. */
    std::array<HostOpEfficiency, kNumAccelKinds> hostOps{};

    // --- accelerated substrate (shared by both machines) ---------------
    dram::DramParams stackDram; //!< the 3D stack under the accelerators
    noc::MeshParams mesh;       //!< accelerator-layer NoC

    // --- integrity & checkpoint pricing (docs/FAULTS.md) ---------------
    /** Streaming end-to-end checksum throughput (CRC32C-style unit on
     * the host / logic layer), bytes per second. */
    double checksumBytesPerSecond = 20.0e9;
    /** Checksum compute + compare energy per byte streamed. */
    double checksumJPerByte = 4.0e-12;
    /** Checkpoint snapshot write energy per journaled byte (a read +
     * write round trip through the stack, TSV crossings included). */
    double journalJPerByte = 15.0e-12;

    const HostOpEfficiency &
    opEfficiency(accel::AccelKind kind) const
    {
        return hostOps[static_cast<std::size_t>(kind)];
    }
};

// --- registry ----------------------------------------------------------

/**
 * Profile by name. Canonical names are `haswell4770k` and
 * `xeonphi5110p`; the short aliases `haswell` and `phi` (the
 * `mealib-run --machine` spellings) resolve to them. fatal() on an
 * unknown name, listing the known ones.
 */
const MachineProfile &profile(const std::string &name);

/** Whether @p name (canonical or alias) resolves to a profile. */
bool knownMachine(const std::string &name);

/** Canonical names of every registered profile. */
std::vector<std::string> profileNames();

/**
 * The process-wide active profile: MEALIB_MACHINE at first use (unset
 * or empty means `haswell4770k`; an unknown name throws MealibError
 * InvalidArgument), overridable with setActiveMachine(). RuntimeConfig's defaults, the dispatch cost
 * oracle and the app pipelines all derive from this.
 */
const MachineProfile &activeProfile();

/** Canonical name of the active profile. */
const std::string &activeMachineName();

/**
 * Switch the active profile (canonical name or alias). Returns
 * InvalidArgument for an unknown name, and InvalidArgument while any
 * pin (see pinActiveMachine) is held — a live session has already
 * captured the profile, and silently repricing its in-flight work
 * would desynchronize cost models from accounting. Switch before
 * constructing runtimes or sessions.
 */
Status setActiveMachine(const std::string &name);

/**
 * Pin the active profile against switching. Each `mealib::Session`
 * holds one pin for its lifetime so setActiveMachine() refuses while
 * any session is live. Pins nest; unpin exactly once per pin.
 */
void pinActiveMachine();

/** Release one pin taken with pinActiveMachine(). */
void unpinActiveMachine();

/** Outstanding pins (0 when no session is live). */
int activeMachinePins();

// --- preset parameter builders (the constants themselves) --------------

/** HMC-like 3D stack of Table 3 (32 vaults, 510 GB/s internal). */
dram::DramParams hmcStackParams();

/** DDR3-1600-like channel group (2 = Haswell/PSAS, 8 = MSAS). */
dram::DramParams ddr3Params(unsigned channels);

/** The 8x4 accelerator-layer mesh behind the Table 5 NoC row. */
noc::MeshParams mealibMeshParams();

/** Haswell i7-4770K as configured in Table 3 (112 GFLOPS, 25.6 GB/s). */
host::CpuParams haswell4770kParams();

/** Xeon Phi 5110P as configured in Table 3 (60 cores, 320 GB/s). */
host::CpuParams xeonPhi5110pParams();

/** Default accelerator configuration for Tables 2/5 and Figs. 9/10. */
accel::AccelConfig accelDefaultConfig(accel::AccelKind kind);

/** 32 nm synthesis constants for @p kind (values land on Table 5). */
accel::SynthesisConstants accelSynthesis(accel::AccelKind kind);

} // namespace mealib::hwmodel

#endif // MEALIB_HWMODEL_PROFILE_HH

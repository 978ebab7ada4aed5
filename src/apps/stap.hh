/**
 * @file
 * Space-Time Adaptive Processing (STAP), the paper's real-world
 * application (Sec. 3.1 Listing 1, Sec. 5.5, Table 4).
 *
 * The pipeline uses exactly the five library calls of Table 4:
 *
 *   1. fftwf_execute (guru rank-0): datacube copy to pulse-major  [RESHP]
 *   2. fftwf_execute (guru rank-1): batched doppler FFT           [FFT]
 *   3. cblas_cherk:  per-(doppler,block) covariance               [host]
 *   4. cblas_ctrsm:  adaptive-weight solves (x2, after Cholesky)  [host]
 *   5. cblas_cdotc_sub: nDop*nBlocks*nSteering*TBS inner products [DOT]
 *   6. cblas_saxpy:  output scaling                               [AXPY]
 *
 * runStapHost() executes everything through MiniMKL on the host model
 * (the paper's optimized multithreaded baseline); runStapMealib() routes
 * the memory-bounded calls through accelerator descriptors — compacted
 * into 3 descriptors exactly as the paper reports (Sec. 5.5) — while
 * cherk/ctrsm stay on the host. Both produce identical numerical output.
 */

#ifndef MEALIB_APPS_STAP_HH
#define MEALIB_APPS_STAP_HH

#include <cstdint>
#include <vector>

#include "common/ledger.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "minimkl/types.hh"
#include "runtime/runtime.hh"

namespace mealib::apps {

/** STAP problem dimensions (PERFECT-suite style). */
struct StapParams
{
    unsigned nChan = 16;     //!< antenna channels
    unsigned tdof = 3;       //!< temporal degrees of freedom
    unsigned nDop = 64;      //!< doppler bins (power of two)
    unsigned nBlocks = 4;    //!< range blocks
    unsigned nSteering = 16; //!< steering vectors
    unsigned tbs = 16;       //!< training-block size (cells per block)
    std::uint64_t seed = 42; //!< datacube generator seed

    unsigned
    nRange() const
    {
        return nBlocks * tbs;
    }

    /** Space-time snapshot vector length (TDOF * N_CHAN, Listing 1). */
    unsigned
    dofLen() const
    {
        return nChan * tdof;
    }

    /** Total cdotc_sub calls (16M for the paper's large set). */
    std::uint64_t
    dotCalls() const
    {
        return static_cast<std::uint64_t>(nDop) * nBlocks * nSteering *
               tbs;
    }

    /** The paper's three data sets (Fig. 13), scaled to run in seconds
     * while keeping the 16M-call structure of the large set. */
    static StapParams smallSet();
    static StapParams mediumSet();
    static StapParams largeSet();
};

/**
 * Output and cost ledger of one STAP run. host() (compute-bounded
 * stages: cherk/ctrsm/marshal, plus the package-idle charge), accel()
 * (accelerator-executed stages), invocation() (flush + descriptor +
 * config overheads), integrity() and total() read the per-stage ledger:
 * the runtime's ledger plus the host package-idle charge for the MEALib
 * pipelines, a locally built one for the host baseline.
 */
struct StapResult : LedgerCosts
{
    std::vector<mkl::cfloat> prods; //!< final products, for verification
    Breakdown timeByAccel;   //!< accel seconds keyed by kind
    Breakdown energyByAccel; //!< accel joules keyed by kind
    std::uint64_t descriptors = 0; //!< accelerator descriptors used
    std::uint64_t libraryCalls = 0; //!< logical library calls issued
    /** Overlap-aware wall clock of the run (the runtime's makespan).
     * Equals total().seconds for the blocking pipelines; smaller for
     * runStapMealibAsync when stacks and host work overlap. */
    double criticalPathSeconds = 0.0;
};

/** Run STAP entirely on the host (the optimized MKL baseline). */
StapResult runStapHost(const StapParams &p);

/**
 * Run STAP with memory-bounded calls on MEALib accelerators.
 *
 * @p exclusive means the run owns @p rt: its accounting is reset first
 * and the aggregate cost breakdown (host/accel/invocation, ledger,
 * makespan) is copied into the result. Pass false when @p rt is shared
 * between concurrent sessions — the run then leaves the aggregate
 * accounting untouched and fills only the functional fields (prods,
 * libraryCalls, descriptors); cost attribution comes from the calling
 * thread's session ledger (docs/SESSIONS.md).
 */
StapResult runStapMealib(const StapParams &p,
                         runtime::MealibRuntime &rt,
                         bool exclusive = true);

/**
 * runStapMealib with the weight/DOT/AXPY phase sliced by doppler bin:
 * each slice's buffers live on their own memory stack (memAllocOn), its
 * descriptor is accSubmit()ed to that stack, and the host computes the
 * next slice's adaptive weights while earlier slices' inner products run
 * near memory. Numerically identical to the blocking pipeline; the
 * overlap shows up as criticalPathSeconds < total().seconds.
 */
StapResult runStapMealibAsync(const StapParams &p,
                              runtime::MealibRuntime &rt,
                              bool exclusive = true);

} // namespace mealib::apps

#endif // MEALIB_APPS_STAP_HH

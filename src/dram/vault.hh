/**
 * @file
 * Per-vault controller model: banks with open-page row-buffer state, a
 * shared per-vault data (TSV) bus, and an FR-FCFS-lite scheduling window
 * that prefers row-buffer hits within a small lookahead.
 */

#ifndef MEALIB_DRAM_VAULT_HH
#define MEALIB_DRAM_VAULT_HH

#include <cstdint>
#include <vector>

#include "dram/params.hh"
#include "dram/request.hh"

namespace mealib::dram {

/** Row-buffer management policy of the vault controller. */
enum class PagePolicy
{
    Open,   //!< keep rows open, exploit hits (the MEALib default)
    Closed, //!< auto-precharge after every access
};

/** Statistics produced by one vault over a simulated request stream. */
struct VaultStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t activates = 0;
    std::uint64_t refreshes = 0;
    Cycles busyUntil = 0; //!< cycle at which the vault finishes

    VaultStats &
    operator+=(const VaultStats &o)
    {
        reads += o.reads;
        writes += o.writes;
        bytesRead += o.bytesRead;
        bytesWritten += o.bytesWritten;
        rowHits += o.rowHits;
        rowMisses += o.rowMisses;
        activates += o.activates;
        refreshes += o.refreshes;
        busyUntil = busyUntil > o.busyUntil ? busyUntil : o.busyUntil;
        return *this;
    }
};

/**
 * One vault: @c banksPerVault banks behind a vault controller. The
 * controller services a queue of requests, reordering within a fixed
 * lookahead window to exploit open rows (FR-FCFS without starvation
 * because the window is bounded).
 */
class Vault
{
  public:
    Vault(const TimingParams &timing, const OrgParams &org,
          unsigned window = 8, PagePolicy policy = PagePolicy::Open);

    /**
     * Service @p queue to completion starting at cycle @p start.
     * Requests carry vault-local addresses. @return stats including the
     * completion cycle.
     */
    VaultStats service(const std::vector<Request> &queue, Cycles start);

    /** Reset bank state (all rows closed). */
    void reset();

    /** Scheduling lookahead window (1 = strict FCFS). */
    unsigned window() const { return window_; }

    /** Row-buffer policy in effect. */
    PagePolicy policy() const { return policy_; }

  private:
    struct Bank
    {
        std::int64_t openRow = -1; //!< -1 = precharged
        Cycles nextCol = 0;        //!< earliest next column command (tCCD)
        Cycles activatedAt = 0;    //!< when the open row was activated
        Cycles preReady = 0;       //!< earliest next precharge (tWR etc.)
    };

    /** Service one request whose address decodes to @p row of bank
     * @p bankIdx; updates bank and bus state. */
    void serviceOne(const Request &req, unsigned bankIdx, std::int64_t row,
                    VaultStats &stats);

    TimingParams timing_;
    OrgParams org_;
    unsigned window_;
    PagePolicy policy_;
    std::vector<Bank> banks_;
    Cycles busFree_ = 0; //!< per-vault data bus availability
};

} // namespace mealib::dram

#endif // MEALIB_DRAM_VAULT_HH

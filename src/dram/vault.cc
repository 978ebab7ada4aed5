#include "dram/vault.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mealib::dram {

Vault::Vault(const TimingParams &timing, const OrgParams &org,
             unsigned window, PagePolicy policy)
    : timing_(timing), org_(org), window_(window), policy_(policy)
{
    fatalIf(org_.banksPerVault == 0, "vault needs at least one bank");
    fatalIf(org_.rowBytes == 0, "row buffer size must be nonzero");
    fatalIf(window_ == 0, "scheduling window must be >= 1");
    banks_.resize(org_.banksPerVault);
}

void
Vault::reset()
{
    for (auto &b : banks_)
        b = Bank{};
    busFree_ = 0;
}

void
Vault::serviceOne(const Request &req, unsigned bankIdx, std::int64_t row,
                  VaultStats &stats)
{
    panicIf(req.bytes == 0 || req.bytes > timing_.burstBytes,
            "request size ", req.bytes, " exceeds burst size ",
            timing_.burstBytes);

    Bank &bank = banks_[bankIdx];

    Cycles col_ready; // when the column command can issue
    if (bank.openRow == row) {
        stats.rowHits++;
        // Column commands to an open row pipeline at the burst rate
        // (tCCD == tBURST); CAS latency overlaps across commands.
        col_ready = bank.nextCol;
    } else {
        stats.rowMisses++;
        stats.activates++;
        Cycles act = bank.preReady;
        if (bank.openRow >= 0) {
            // honour tRAS before precharging the old row
            Cycles ras_done = bank.activatedAt + timing_.tRAS;
            act = std::max(act, ras_done) + timing_.tRP;
        }
        bank.activatedAt = act;
        col_ready = act + timing_.tRCD;
        bank.openRow = row;
    }

    // Data transfer occupies the shared vault bus after CAS latency.
    Cycles data_start = std::max(col_ready + timing_.tCAS, busFree_);
    Cycles data_end = data_start + timing_.tBURST;
    busFree_ = data_end;

    // Next column command may issue one burst slot after this one; a
    // precharge must additionally wait for the data to drain (plus write
    // recovery for writes).
    bank.nextCol = data_start - timing_.tCAS + timing_.tBURST;
    bank.preReady = std::max(
        bank.preReady, data_end + (req.isWrite ? timing_.tWR : 0));

    if (policy_ == PagePolicy::Closed) {
        // Auto-precharge: the row closes behind the burst; the next
        // access to this bank activates from scratch (after tRAS/tRP).
        bank.preReady = std::max(bank.activatedAt + timing_.tRAS,
                                 bank.preReady) +
                        timing_.tRP;
        bank.openRow = -1;
    }

    if (req.isWrite) {
        stats.writes++;
        stats.bytesWritten += req.bytes;
    } else {
        stats.reads++;
        stats.bytesRead += req.bytes;
    }
    stats.busyUntil = std::max(stats.busyUntil, data_end);
}

VaultStats
Vault::service(const std::vector<Request> &queue, Cycles start)
{
    VaultStats stats;
    busFree_ = std::max(busFree_, start);
    for (auto &b : banks_) {
        b.nextCol = std::max(b.nextCol, start);
        b.preReady = std::max(b.preReady, start);
    }

    // FR-FCFS-lite: within a bounded lookahead window pick the oldest
    // request that hits an open row; fall back to the oldest request.
    // A request's row and bank are decoded once, as it enters the
    // window, rather than on every scan of it.
    struct Pending
    {
        const Request *req;
        std::int64_t row;
        unsigned bank;
    };
    std::vector<Pending> pending;
    std::size_t next = 0;
    const std::size_t n = queue.size();
    pending.reserve(window_);

    while (next < n || !pending.empty()) {
        while (next < n && pending.size() < window_) {
            const Request &r = queue[next++];
            const std::uint64_t row = r.addr / org_.rowBytes;
            pending.push_back({&r, static_cast<std::int64_t>(row),
                               static_cast<unsigned>(
                                   row % org_.banksPerVault)});
        }

        std::size_t pick = 0; // oldest overall unless a hit is found
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (banks_[pending[i].bank].openRow == pending[i].row) {
                pick = i;
                break; // oldest hit wins
            }
        }

        const Pending &p = pending[pick];
        serviceOne(*p.req, p.bank, p.row, stats);
        pending.erase(pending.begin() +
                      static_cast<std::ptrdiff_t>(pick));
    }

    stats.busyUntil = std::max(stats.busyUntil, start);

    // All-bank refresh steals tRFC out of every tREFI window; model it
    // as a proportional stretch of the busy interval (the scheduler
    // cannot hide it for long bursts of traffic).
    if (timing_.tREFI > 0 && stats.busyUntil > start) {
        Cycles busy = stats.busyUntil - start;
        stats.refreshes = busy / timing_.tREFI;
        stats.busyUntil += stats.refreshes * timing_.tRFC;
    }
    return stats;
}

} // namespace mealib::dram

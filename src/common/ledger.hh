/**
 * @file
 * Cross-layer energy/EDP ledger (docs/MODEL.md).
 *
 * The models produce Cost deltas in many places — host roofline runs,
 * accelerator executions, invocation overheads, fault recovery,
 * dispatch decisions. An EnergyLedger collects them per run into one
 * observable record: named cost *tracks* whose sum is the run total,
 * an energy-only *component* attribution (DRAM vs. logic vs. NoC vs.
 * link vs. host package), and aggregated per-label event statistics.
 * The ledger is the only store a modeled Cost accumulates in:
 * RuntimeAccounting and StapResult read their host/accel/invocation/
 * integrity costs from its tracks (LedgerCosts), so ledger.total() and
 * accounting().total() cannot drift apart; `mealib-run --energy-json`
 * serializes the ledger.
 */

#ifndef MEALIB_COMMON_LEDGER_HH
#define MEALIB_COMMON_LEDGER_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/stats.hh"
#include "common/units.hh"

namespace mealib {

/**
 * Per-run cost ledger with track/component/event views.
 *
 * Internally synchronized: one ledger may be posted to from several
 * threads (a session's dispatcher notes decisions while the shared
 * runtime mirrors accounting updates), so every mutator and every
 * aggregate reader takes an internal mutex. The reference-returning
 * views (tracks()/events()/energyByComponent()) are *not* synchronized
 * — read them only when no other thread is posting.
 */
class EnergyLedger
{
  public:
    /** Aggregated statistics of one event label on one track. */
    struct EventStat
    {
        std::uint64_t count = 0;
        Cost cost;
    };

    EnergyLedger() = default;
    EnergyLedger(const EnergyLedger &other);
    EnergyLedger &operator=(const EnergyLedger &other);

    /**
     * Charge @p c to @p track ("host", "accel", "invocation"). The
     * optional @p label aggregates an event record ("track/label") so
     * the JSON shows what the track's total is made of.
     */
    void post(const std::string &track, const Cost &c,
              const std::string &label = "");

    /**
     * Attribute @p joules of already-posted energy to a physical
     * component ("dram", "logic", "noc", "link", "fault", "host",
     * "invocation"). A view of where posted energy went — attribution
     * never changes total().
     */
    void attribute(const std::string &component, double joules);

    /** Record a zero-cost event (e.g. a dispatch decision). */
    void note(const std::string &label);

    /** Record useful work for the GFLOPS/W summary metric. */
    void addFlops(double flops);

    /** Sum of every track: the run's end-to-end cost. */
    Cost total() const;

    /** One track's accumulated cost (zero if never posted). */
    Cost track(const std::string &name) const;

    const std::map<std::string, Cost> &tracks() const { return tracks_; }
    const Breakdown &energyByComponent() const { return components_; }
    const std::map<std::string, EventStat> &events() const
    {
        return events_;
    }

    double flops() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return flops_;
    }

    /** Energy-delay product of the run total (J*s). */
    double
    edp() const
    {
        return total().edp();
    }

    /** GFLOP/s per watt over the whole run (0 without work/energy). */
    double gflopsPerWatt() const;

    void reset();

    /**
     * Serialize to a JSON object: machine name, total
     * {seconds, joules, watts, edp}, gflops_per_watt, per-track costs,
     * energy_by_component, and the aggregated events.
     */
    std::string toJson(const std::string &machine = "") const;

  private:
    Cost totalLocked() const;

    mutable std::mutex mu_;
    std::map<std::string, Cost> tracks_;
    Breakdown components_;
    std::map<std::string, EventStat> events_;
    double flops_ = 0.0;
};

/**
 * The four cost tracks a run's breakdown reports, read from the ledger
 * that holds them (docs/MODEL.md). Views, not copies: a charge posted to
 * the ledger is the only update they see.
 */
struct LedgerCosts
{
    EnergyLedger ledger;

    Cost host() const { return ledger.track("host"); }
    Cost accel() const { return ledger.track("accel"); }
    Cost invocation() const { return ledger.track("invocation"); }
    /** Operand verification + checkpoint journaling. */
    Cost integrity() const { return ledger.track("integrity"); }

    Cost
    total() const
    {
        return host() + accel() + invocation() + integrity();
    }
};

} // namespace mealib

#endif // MEALIB_COMMON_LEDGER_HH

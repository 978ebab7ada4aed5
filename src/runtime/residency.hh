/**
 * @file
 * Cross-command operand residency (docs/RUNTIME.md).
 *
 * MEALib's efficiency comes from keeping library operands next to the
 * accelerators across a chain of commands. The residency tracker keeps,
 * per physical byte, two pieces of reuse state the invocation path can
 * exploit on the NEXT submission touching the same intervals:
 *
 *   flush-clean   the range is coherent between the host caches and the
 *                 memory-side view: it was flushed (or written by an
 *                 accelerator) and the host has not dirtied it since.
 *                 The pre-submit cache flush can skip these bytes.
 *   verify-clean  the range's cached operand checksum is still valid:
 *                 it was verified on a previous command and nothing has
 *                 written it since. End-to-end verification can skip
 *                 re-checksumming these bytes.
 *
 * Invalidation rules (strict — residency may only ever elide work that
 * is provably redundant):
 *   - a host write (hazard interval, app-side noteHostWrite) drops both
 *     states for the written range;
 *   - an accelerator write keeps the range flush-clean (the host cache
 *     holds no dirty line) but drops verify-clean unless the command
 *     itself was verified;
 *   - stack quarantine / death / checkpoint-restore drains drop every
 *     range on the affected stack;
 *   - a host-fallback execution drops the plan's written intervals;
 *   - memFree drops the freed range (a future owner starts cold).
 *
 * The tracker only shapes modeled time/energy: functional results are
 * identical whether it is on or off.
 */

#ifndef MEALIB_RUNTIME_RESIDENCY_HH
#define MEALIB_RUNTIME_RESIDENCY_HH

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.hh"
#include "runtime/event.hh"

namespace mealib::runtime {

/** Opt-in switch for the residency layer (off = bit-for-bit legacy). */
struct ResidencyConfig
{
    /** Track operand residency and elide redundant flush/verify work. */
    bool enabled = false;
};

/**
 * A set of non-overlapping, coalesced half-open byte ranges [lo, hi).
 */
class IntervalSet
{
  public:
    /** Add [lo, hi), merging with overlapping/adjacent ranges. */
    void insert(Addr lo, Addr hi);

    /** Remove [lo, hi), splitting partially covered ranges. */
    void erase(Addr lo, Addr hi);

    /** Bytes of [lo, hi) currently in the set. */
    std::uint64_t coveredBytes(Addr lo, Addr hi) const;

    void clear() { ranges_.clear(); }
    bool empty() const { return ranges_.empty(); }
    std::size_t rangeCount() const { return ranges_.size(); }
    /** The ranges in address order, lo -> hi. */
    const std::map<Addr, Addr> &ranges() const { return ranges_; }

  private:
    std::map<Addr, Addr> ranges_; //!< lo -> hi, disjoint, coalesced
};

/** Per-arena tracker of flush-clean / verify-clean operand ranges. */
class ResidencyTracker
{
  public:
    /**
     * A command completed on an accelerator: its whole footprint is
     * flush-clean (the host touched nothing since the pre-submit
     * flush), and — when @p verified — its checksums are cached, so
     * the footprint is verify-clean too. Unverified commands instead
     * drop verify-clean for their written intervals (the write made
     * any cached checksum stale).
     */
    void commit(const std::vector<AccessInterval> &intervals,
                bool verified);

    /** The host wrote [lo, hi): drop both states for the range. */
    void hostWrite(Addr lo, Addr hi);

    /** Drop both states for the written intervals of @p intervals
     * (host-fallback execution: the host produced the outputs). */
    void invalidateWrites(const std::vector<AccessInterval> &intervals);

    /** Drop both states for every interval (conservative: used when a
     * command is drained/replayed after a stack death). */
    void invalidateAll(const std::vector<AccessInterval> &intervals);

    /** Drop both states for the address range [lo, hi) (stack
     * quarantine/death, memFree). */
    void dropRange(Addr lo, Addr hi);

    /** Forget everything (resetAccounting). */
    void reset();

    /** Flush-clean bytes among the READ intervals of @p intervals —
     * the share of the input footprint the pre-submit flush can skip. */
    std::uint64_t
    flushCleanReadBytes(const std::vector<AccessInterval> &intervals)
        const;

    /** Total bytes of the READ intervals of @p intervals. */
    static std::uint64_t
    readBytes(const std::vector<AccessInterval> &intervals);

    /** Verify-clean bytes across ALL intervals of @p intervals — the
     * share of the operand footprint a verification pass can skip. */
    std::uint64_t
    verifyCleanBytes(const std::vector<AccessInterval> &intervals) const;

    const IntervalSet &flushClean() const { return flushClean_; }
    const IntervalSet &verifyClean() const { return verifyClean_; }

  private:
    IntervalSet flushClean_;
    IntervalSet verifyClean_;
};

} // namespace mealib::runtime

#endif // MEALIB_RUNTIME_RESIDENCY_HH

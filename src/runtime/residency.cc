#include "runtime/residency.hh"

#include <algorithm>

namespace mealib::runtime {

void
IntervalSet::insert(Addr lo, Addr hi)
{
    if (hi <= lo)
        return;
    // Merge every range overlapping or adjacent to [lo, hi).
    auto it = ranges_.upper_bound(lo);
    if (it != ranges_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= lo) {
            lo = prev->first;
            hi = std::max(hi, prev->second);
            it = ranges_.erase(prev);
        }
    }
    while (it != ranges_.end() && it->first <= hi) {
        hi = std::max(hi, it->second);
        it = ranges_.erase(it);
    }
    ranges_.emplace(lo, hi);
}

void
IntervalSet::erase(Addr lo, Addr hi)
{
    if (hi <= lo || ranges_.empty())
        return;
    auto it = ranges_.upper_bound(lo);
    if (it != ranges_.begin()) {
        auto prev = std::prev(it);
        if (prev->second > lo)
            it = prev;
    }
    while (it != ranges_.end() && it->first < hi) {
        const Addr rlo = it->first;
        const Addr rhi = it->second;
        it = ranges_.erase(it);
        if (rlo < lo)
            ranges_.emplace(rlo, lo);
        if (rhi > hi) {
            ranges_.emplace(hi, rhi);
            break;
        }
    }
}

std::uint64_t
IntervalSet::coveredBytes(Addr lo, Addr hi) const
{
    if (hi <= lo || ranges_.empty())
        return 0;
    std::uint64_t covered = 0;
    auto it = ranges_.upper_bound(lo);
    if (it != ranges_.begin()) {
        auto prev = std::prev(it);
        if (prev->second > lo)
            it = prev;
    }
    for (; it != ranges_.end() && it->first < hi; ++it) {
        const Addr a = std::max(lo, it->first);
        const Addr b = std::min(hi, it->second);
        if (b > a)
            covered += b - a;
    }
    return covered;
}

void
ResidencyTracker::commit(const std::vector<AccessInterval> &intervals,
                         bool verified)
{
    for (const AccessInterval &iv : intervals) {
        if (iv.hi <= iv.lo)
            continue;
        flushClean_.insert(iv.lo, iv.hi);
        if (verified)
            verifyClean_.insert(iv.lo, iv.hi);
        else if (iv.write)
            verifyClean_.erase(iv.lo, iv.hi);
    }
}

void
ResidencyTracker::hostWrite(Addr lo, Addr hi)
{
    flushClean_.erase(lo, hi);
    verifyClean_.erase(lo, hi);
}

void
ResidencyTracker::invalidateWrites(
    const std::vector<AccessInterval> &intervals)
{
    for (const AccessInterval &iv : intervals)
        if (iv.write)
            hostWrite(iv.lo, iv.hi);
}

void
ResidencyTracker::invalidateAll(
    const std::vector<AccessInterval> &intervals)
{
    for (const AccessInterval &iv : intervals)
        hostWrite(iv.lo, iv.hi);
}

void
ResidencyTracker::dropRange(Addr lo, Addr hi)
{
    flushClean_.erase(lo, hi);
    verifyClean_.erase(lo, hi);
}

void
ResidencyTracker::reset()
{
    flushClean_.clear();
    verifyClean_.clear();
}

std::uint64_t
ResidencyTracker::flushCleanReadBytes(
    const std::vector<AccessInterval> &intervals) const
{
    std::uint64_t clean = 0;
    for (const AccessInterval &iv : intervals)
        if (!iv.write)
            clean += flushClean_.coveredBytes(iv.lo, iv.hi);
    return clean;
}

std::uint64_t
ResidencyTracker::readBytes(const std::vector<AccessInterval> &intervals)
{
    std::uint64_t bytes = 0;
    for (const AccessInterval &iv : intervals)
        if (!iv.write && iv.hi > iv.lo)
            bytes += iv.hi - iv.lo;
    return bytes;
}

std::uint64_t
ResidencyTracker::verifyCleanBytes(
    const std::vector<AccessInterval> &intervals) const
{
    std::uint64_t clean = 0;
    for (const AccessInterval &iv : intervals)
        clean += verifyClean_.coveredBytes(iv.lo, iv.hi);
    return clean;
}

} // namespace mealib::runtime

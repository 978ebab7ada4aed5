#include "dram/tracegen.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mealib::dram {

TraceBuilder::TraceBuilder(const DramParams &params,
                           std::uint64_t maxSampledBytes)
    : params_(params), cap_(maxSampledBytes)
{
    fatalIf(params_.timing.burstBytes == 0, "device burst size is zero");
    fatalIf(cap_ < params_.timing.burstBytes,
            "sampling cap smaller than one burst");
}

double
TraceBuilder::sampleFraction(std::uint64_t total_bytes) const
{
    if (total_bytes <= cap_)
        return 1.0;
    return static_cast<double>(cap_) / static_cast<double>(total_bytes);
}

void
TraceBuilder::chunk(Stream &s, Addr base, std::uint64_t bytes, bool write)
{
    const std::uint64_t burst = params_.timing.burstBytes;
    Addr a = base;
    std::uint64_t left = bytes;
    while (left > 0) {
        // split at burst-aligned boundaries so each request maps to one
        // row-buffer access
        std::uint64_t in_burst = burst - (a % burst);
        std::uint32_t take =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(left,
                                                               in_burst));
        s.bursts.push_back({a, take, write});
        s.sampledBytes += take;
        a += take;
        left -= take;
    }
}

void
TraceBuilder::addLinear(Addr base, std::uint64_t bytes, bool write)
{
    if (bytes == 0)
        return;
    totalBytes_ += bytes;
    Stream s;
    s.totalBytes = bytes;
    // Materialize a prefix window; a linear stream's steady state is
    // position-independent so a prefix is a faithful sample.
    std::uint64_t window = std::min(bytes, cap_);
    // One burst per aligned boundary crossed, plus unaligned edges.
    s.bursts.reserve(static_cast<std::size_t>(
        window / params_.timing.burstBytes + 2));
    chunk(s, base, window, write);
    streams_.push_back(std::move(s));
}

void
TraceBuilder::addStrided(Addr base, std::uint64_t chunkBytes,
                         std::uint64_t strideBytes, std::uint64_t count,
                         bool write)
{
    if (count == 0 || chunkBytes == 0)
        return;
    fatalIf(strideBytes < chunkBytes,
            "stride must be at least the chunk size");
    totalBytes_ += chunkBytes * count;
    Stream s;
    s.totalBytes = chunkBytes * count;
    std::uint64_t max_chunks =
        std::max<std::uint64_t>(1, cap_ / chunkBytes);
    std::uint64_t n = std::min(count, max_chunks);
    s.bursts.reserve(static_cast<std::size_t>(
        n * (chunkBytes / params_.timing.burstBytes + 1)));
    for (std::uint64_t i = 0; i < n; ++i)
        chunk(s, base + i * strideBytes, chunkBytes, write);
    streams_.push_back(std::move(s));
}

void
TraceBuilder::addGather(Addr base, std::uint64_t regionBytes,
                        std::uint64_t count, std::uint32_t elemBytes,
                        bool write, Rng &rng)
{
    if (count == 0 || elemBytes == 0)
        return;
    fatalIf(regionBytes < elemBytes, "gather region smaller than element");
    totalBytes_ += static_cast<std::uint64_t>(elemBytes) * count;
    Stream s;
    s.totalBytes = static_cast<std::uint64_t>(elemBytes) * count;
    std::uint64_t max_elems =
        std::max<std::uint64_t>(1, cap_ / elemBytes);
    std::uint64_t n = std::min(count, max_elems);
    s.bursts.reserve(static_cast<std::size_t>(
        n * (elemBytes / params_.timing.burstBytes + 1)));
    const std::uint64_t slots = regionBytes / elemBytes;
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr a = base + rng.below(slots) * elemBytes;
        chunk(s, a, elemBytes, write);
    }
    streams_.push_back(std::move(s));
}

Trace
TraceBuilder::build() const
{
    Trace t;
    t.totalBytes = totalBytes_;

    // Trim every stream to a common sampled fraction so the window's
    // stream mix matches the full operation's mix.
    double frac = 1.0;
    for (const Stream &s : streams_) {
        double f = static_cast<double>(s.sampledBytes) /
                   static_cast<double>(s.totalBytes);
        frac = std::min(frac, f);
    }

    struct Cursor
    {
        const Stream *s;
        std::uint64_t quota; //!< bursts to emit
        std::uint64_t emitted = 0;
    };
    std::vector<Cursor> cur;
    for (const Stream &s : streams_) {
        // Trim this stream's materialized prefix so its sampled fraction
        // equals the common fraction `frac` (streams whose fraction is
        // already `frac` keep everything).
        double f_s = static_cast<double>(s.sampledBytes) /
                     static_cast<double>(s.totalBytes);
        std::uint64_t quota = static_cast<std::uint64_t>(
            static_cast<double>(s.bursts.size()) * (frac / f_s) + 0.5);
        quota = std::min<std::uint64_t>(
            std::max<std::uint64_t>(quota, 1), s.bursts.size());
        cur.push_back({&s, quota});
    }

    // Smooth weighted round-robin: at each step emit from the stream with
    // the largest deficit between its proportional share and what it has
    // already emitted. This mirrors a DMA engine arbitrating streams by
    // bandwidth share.
    std::uint64_t total_quota = 0;
    for (const Cursor &c : cur)
        total_quota += c.quota;

    t.requests.reserve(total_quota);
    for (std::uint64_t step = 1; step <= total_quota; ++step) {
        double best_deficit = -1.0;
        Cursor *best = nullptr;
        for (Cursor &c : cur) {
            if (c.emitted >= c.quota)
                continue;
            double share = static_cast<double>(c.quota) /
                           static_cast<double>(total_quota);
            double deficit = share * static_cast<double>(step) -
                             static_cast<double>(c.emitted);
            if (deficit > best_deficit) {
                best_deficit = deficit;
                best = &c;
            }
        }
        panicIf(best == nullptr, "round-robin ran out of streams early");
        const Request &r = best->s->bursts[best->emitted];
        t.requests.push_back(r);
        t.sampledBytes += r.bytes;
        best->emitted++;
    }
    return t;
}

} // namespace mealib::dram

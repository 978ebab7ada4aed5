/**
 * @file
 * Shared helpers for the per-figure bench binaries: aligned table
 * printing and the paper-vs-measured banner each bench emits so that
 * EXPERIMENTS.md can be regenerated from bench output.
 */

#ifndef MEALIB_BENCH_BENCH_UTIL_HH
#define MEALIB_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace mealib::bench {

/** Print the bench banner: which figure/table, and the paper's claim. */
inline void
banner(const char *experiment, const char *paperClaim)
{
    std::printf("=== %s ===\n", experiment);
    std::printf("paper: %s\n\n", paperClaim);
}

/** Simple fixed-width table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(headers_.size(), 0);
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &r : rows_)
            for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], r[c].size());

        auto line = [&](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < cells.size(); ++c)
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            cells[c].c_str());
            std::printf("\n");
        };
        line(headers_);
        for (const auto &r : rows_)
            line(r);
        std::printf("\n");
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style float formatting into std::string. */
inline std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

// --- stable kernel timing ---------------------------------------------------

/** Knobs for timeKernel(); the defaults suit ~ms-scale kernels. */
struct TimingConfig
{
    int warmupIters = 2;      //!< untimed calls before measuring
    double targetSeconds = 0.08; //!< per-repetition timed budget
    int repetitions = 5;      //!< min-of-N repetitions reported
    int maxIters = 1 << 20;   //!< cap on iterations per repetition
};

/** One timing result: min-of-N seconds per call plus the batch shape. */
struct TimingResult
{
    double secondsPerCall = 0.0; //!< best repetition, per-call
    int itersPerRep = 0;         //!< calls per timed repetition
    int repetitions = 0;
};

/**
 * Time @p fn with warmup and min-of-N repetitions. The iteration count
 * per repetition is scaled so one repetition runs for roughly
 * TimingConfig::targetSeconds, which keeps the minimum stable enough to
 * gate on: a single cold call measures mostly page faults and cache
 * warmup, not the kernel.
 */
template <typename Fn>
TimingResult
timeKernel(Fn &&fn, const TimingConfig &cfg = {})
{
    using clock = std::chrono::steady_clock;
    auto secondsSince = [](clock::time_point t0) {
        return std::chrono::duration<double>(clock::now() - t0).count();
    };

    for (int i = 0; i < cfg.warmupIters; ++i)
        fn();

    // Calibrate: estimate a single-call cost, then pick the batch size.
    auto t0 = clock::now();
    fn();
    double est = std::max(secondsSince(t0), 1e-9);
    int iters = static_cast<int>(
        std::clamp(cfg.targetSeconds / est, 1.0,
                   static_cast<double>(cfg.maxIters)));

    TimingResult r;
    r.itersPerRep = iters;
    r.repetitions = cfg.repetitions;
    r.secondsPerCall = 0.0;
    for (int rep = 0; rep < cfg.repetitions; ++rep) {
        auto tr = clock::now();
        for (int i = 0; i < iters; ++i)
            fn();
        double per = secondsSince(tr) / iters;
        if (rep == 0 || per < r.secondsPerCall)
            r.secondsPerCall = per;
    }
    return r;
}

// --- minimal JSON emission --------------------------------------------------

/**
 * Flat JSON document writer for bench output: an object holding scalar
 * metadata plus one array of record objects. Covers exactly what
 * BENCH_kernels.json needs — not a general JSON library.
 */
class JsonWriter
{
  public:
    /** Add a top-level scalar field. */
    void
    meta(const std::string &key, const std::string &value)
    {
        meta_.push_back({key, quoted(value)});
    }

    // Keep string literals out of the bool overload.
    void
    meta(const std::string &key, const char *value)
    {
        meta(key, std::string(value));
    }

    void
    meta(const std::string &key, double value)
    {
        meta_.push_back({key, num(value)});
    }

    void
    meta(const std::string &key, bool value)
    {
        meta_.push_back({key, value ? "true" : "false"});
    }

    /** Start a record in the array; finish it with endRecord(). */
    void
    beginRecord()
    {
        fields_.clear();
    }

    void
    field(const std::string &key, const std::string &value)
    {
        fields_.push_back({key, quoted(value)});
    }

    void
    field(const std::string &key, const char *value)
    {
        field(key, std::string(value));
    }

    void
    field(const std::string &key, double value)
    {
        fields_.push_back({key, num(value)});
    }

    void
    field(const std::string &key, long long value)
    {
        fields_.push_back({key, std::to_string(value)});
    }

    void
    field(const std::string &key, bool value)
    {
        fields_.push_back({key, value ? "true" : "false"});
    }

    void
    endRecord()
    {
        std::string rec = "    {";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i)
                rec += ", ";
            rec += quoted(fields_[i].first);
            rec += ": ";
            rec += fields_[i].second;
        }
        rec += "}";
        records_.push_back(std::move(rec));
    }

    /** @return the whole document ("records" holds the array). */
    std::string
    str() const
    {
        std::string out = "{\n";
        for (const auto &[k, v] : meta_) {
            out += "  ";
            out += quoted(k);
            out += ": ";
            out += v;
            out += ",\n";
        }
        out += "  \"records\": [\n";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            out += records_[i];
            out += i + 1 < records_.size() ? ",\n" : "\n";
        }
        out += "  ]\n}\n";
        return out;
    }

    /** Write the document to @p path. @return false on I/O failure. */
    bool
    writeFile(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::string s = str();
        bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
        return std::fclose(f) == 0 && ok;
    }

  private:
    /** @p s as a JSON string literal: quotes and backslashes escaped. */
    static std::string
    quoted(const std::string &s)
    {
        std::string out;
        out.reserve(s.size() + 2);
        out += '"';
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        out += '"';
        return out;
    }

    static std::string
    num(double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        return buf;
    }

    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<std::pair<std::string, std::string>> fields_;
    std::vector<std::string> records_;
};

} // namespace mealib::bench

#endif // MEALIB_BENCH_BENCH_UTIL_HH

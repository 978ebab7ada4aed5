/**
 * @file
 * Host-side parallel execution engine for the MiniMKL kernels.
 *
 * Three pieces:
 *
 *  - ThreadPool: a lazily-created, process-wide pool of worker threads.
 *    Jobs are a fixed number of indexed tasks claimed with an atomic
 *    counter; the submitting thread participates, so a pool of W workers
 *    executes with W+1 threads. Nested submissions run inline (no
 *    deadlock, no oversubscription).
 *
 *  - parallelFor: static range partitioning of [begin, end) into at most
 *    KernelTuning::numThreads contiguous chunks of at least `grain`
 *    elements. Chunk boundaries depend only on the range, the grain and
 *    the configured thread count — never on scheduling — so element-wise
 *    maps are trivially deterministic.
 *
 *  - deterministicReduce: reductions (sdot, snrm2, sasum, ...) are
 *    partitioned into fixed-size chunks whose count depends only on n
 *    and the chunk size, and the per-chunk partials are
 *    combined by a fixed-order pairwise tree. The result is therefore
 *    bit-identical regardless of thread count — including a thread count
 *    of one — and across repeated runs.
 *
 * KernelTuning carries the tuning knobs (thread count, parallel cutoff,
 * SIMD level); defaults come from the environment once at first use
 * and can be overridden programmatically (the parity tests sweep them).
 */

#ifndef MEALIB_COMMON_PARALLEL_HH
#define MEALIB_COMMON_PARALLEL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/simd.hh"

namespace mealib {

/**
 * Tuning knobs for the parallel cache-blocked kernels. Two defaults are
 * read from the environment on first use:
 *
 *   MEALIB_NUM_THREADS     worker threads used to partition loops
 *   MEALIB_SIMD            scalar|sse4|avx2|avx512|auto kernel backend
 *
 * Unset or empty means the default; any other value outside the
 * accepted set (MEALIB_NUM_THREADS: 1..kMaxWorkers+1) throws
 * MealibError (InvalidArgument).
 */
struct KernelTuning
{
    int numThreads = 1;
    /** Minimum elements of work before a kernel fans out. */
    std::int64_t parallelCutoff = 1 << 15;
    simd::SimdLevel simd = simd::SimdLevel::Auto;

    /** Build a tuning with defaults taken from the environment. */
    static KernelTuning fromEnv();

    /** Threads to use for @p work elements (1 below the cutoff). */
    int
    threadsFor(std::int64_t work) const
    {
        return work >= parallelCutoff ? (numThreads > 1 ? numThreads : 1)
                                      : 1;
    }
};

/** Process-wide mutable tuning instance (initialized from the env). */
KernelTuning &kernelTuning();

/**
 * Fixed pool of worker threads executing indexed task batches. Use via
 * parallelFor/deterministicReduce rather than directly.
 */
class ThreadPool
{
  public:
    /** The process-wide pool (created on first use). */
    static ThreadPool &instance();

    /** @return true when the calling thread is executing a pool task. */
    static bool inTask();

    /**
     * Grow the pool so that @p threads concurrent lanes (workers plus
     * the submitting thread) are available. Capped at kMaxWorkers.
     */
    void ensure(int threads);

    /** Spawned worker threads (excludes the submitting thread). */
    int workerCount() const;

    /**
     * Run fn(0) ... fn(tasks-1) across the pool and the calling thread;
     * blocks until every task has finished. Tasks must not overlap in
     * their writes. Exceptions thrown by tasks are rethrown (first one
     * wins). Nested calls from inside a task execute inline.
     */
    void run(int tasks, const std::function<void(int)> &fn);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    static constexpr int kMaxWorkers = 63;

  private:
    ThreadPool() = default;

    void workerLoop();

    mutable std::mutex m_;
    std::mutex batch_; //!< serializes run() batches from multiple threads
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
    const std::function<void(int)> *job_ = nullptr;
    int jobTasks_ = 0;
    int next_ = 0;
    int remaining_ = 0;
    std::exception_ptr firstError_;
    bool stop_ = false;
};

/**
 * Apply body(chunkBegin, chunkEnd) over a static partition of
 * [begin, end) into at most @p threads contiguous chunks of at least
 * @p grain elements. threads <= 1 (or a single chunk) runs inline.
 */
void parallelFor(std::int64_t begin, std::int64_t end, int threads,
                 std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>
                     &body);

/**
 * Deterministic parallel reduction over [0, n). The range is cut into
 * fixed chunks of @p chunk elements; @p chunkFn(b, e) produces a
 * partial for one chunk (sequentially), and @p combine merges two
 * partials. Partials are merged by a fixed-order pairwise tree, so the
 * result depends only on n and @p chunk — not on the thread count.
 * Requires n > 0.
 */
template <typename Partial, typename ChunkFn, typename CombineFn>
Partial
deterministicReduce(std::int64_t n, std::int64_t chunk, int threads,
                    ChunkFn chunkFn, CombineFn combine)
{
    if (chunk < 1)
        chunk = 1;
    const std::int64_t nChunks = (n + chunk - 1) / chunk;
    if (nChunks == 1)
        return chunkFn(std::int64_t{0}, n);

    std::vector<Partial> parts(static_cast<std::size_t>(nChunks));
    parallelFor(0, nChunks, threads, 1,
                [&](std::int64_t cb, std::int64_t ce) {
                    for (std::int64_t c = cb; c < ce; ++c) {
                        std::int64_t b = c * chunk;
                        std::int64_t e = std::min(b + chunk, n);
                        parts[static_cast<std::size_t>(c)] = chunkFn(b, e);
                    }
                });

    // Fixed-order pairwise tree: (p0+p1), (p2+p3), ... then recurse.
    std::int64_t len = nChunks;
    while (len > 1) {
        std::int64_t half = len / 2;
        for (std::int64_t i = 0; i < half; ++i)
            parts[static_cast<std::size_t>(i)] =
                combine(parts[static_cast<std::size_t>(2 * i)],
                        parts[static_cast<std::size_t>(2 * i + 1)]);
        if (len & 1) {
            parts[static_cast<std::size_t>(half)] =
                parts[static_cast<std::size_t>(len - 1)];
            ++half;
        }
        len = half;
    }
    return parts[0];
}

} // namespace mealib

#endif // MEALIB_COMMON_PARALLEL_HH

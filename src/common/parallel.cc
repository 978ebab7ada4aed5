#include "common/parallel.hh"

#include <algorithm>

#include "common/cli.hh"

namespace mealib {

namespace {

thread_local bool tlInTask = false;

} // namespace

KernelTuning
KernelTuning::fromEnv()
{
    KernelTuning t;
    t.numThreads = static_cast<int>(
        std::stoll(envValue(envFlag(Env::NumThreads))));
    simd::parseLevel(envValue(envFlag(Env::Simd)).c_str(), &t.simd);
    return t;
}

KernelTuning &
kernelTuning()
{
    static KernelTuning tuning = KernelTuning::fromEnv();
    return tuning;
}

ThreadPool &
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

bool
ThreadPool::inTask()
{
    return tlInTask;
}

int
ThreadPool::workerCount() const
{
    std::lock_guard<std::mutex> lk(m_);
    return static_cast<int>(workers_.size());
}

void
ThreadPool::ensure(int threads)
{
    int want = std::min(threads - 1, kMaxWorkers);
    std::lock_guard<std::mutex> lk(m_);
    while (static_cast<int>(workers_.size()) < want)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        const std::function<void(int)> *job = nullptr;
        int t = 0;
        {
            std::unique_lock<std::mutex> lk(m_);
            wake_.wait(lk, [&] {
                return stop_ || (job_ != nullptr && next_ < jobTasks_);
            });
            if (stop_)
                return;
            // Claim under the lock: job_ is valid exactly while the
            // batch is open, so a claimed (job, t) pair can never be
            // stale.
            job = job_;
            t = next_++;
        }
        tlInTask = true;
        try {
            (*job)(t);
        } catch (...) {
            std::lock_guard<std::mutex> lk(m_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        tlInTask = false;
        bool last = false;
        {
            std::lock_guard<std::mutex> lk(m_);
            last = --remaining_ == 0;
        }
        if (last)
            done_.notify_all();
    }
}

void
ThreadPool::run(int tasks, const std::function<void(int)> &fn)
{
    if (tasks <= 0)
        return;
    // Inline when there is nothing to fan out to, or when called from
    // inside a task (nested parallelism runs sequentially).
    if (tasks == 1 || tlInTask || workerCount() == 0) {
        for (int t = 0; t < tasks; ++t)
            fn(t);
        return;
    }

    // One batch at a time: a second submitting thread queues up here.
    std::lock_guard<std::mutex> batchLk(batch_);
    {
        std::lock_guard<std::mutex> lk(m_);
        job_ = &fn;
        jobTasks_ = tasks;
        remaining_ = tasks;
        next_ = 0;
        firstError_ = nullptr;
    }
    wake_.notify_all();

    // The submitting thread participates.
    for (;;) {
        int t;
        {
            std::lock_guard<std::mutex> lk(m_);
            if (next_ >= jobTasks_)
                break;
            t = next_++;
        }
        tlInTask = true;
        try {
            fn(t);
        } catch (...) {
            std::lock_guard<std::mutex> lk(m_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        tlInTask = false;
        bool last = false;
        {
            std::lock_guard<std::mutex> lk(m_);
            last = --remaining_ == 0;
        }
        if (last)
            done_.notify_all();
    }

    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lk(m_);
        done_.wait(lk, [&] { return remaining_ == 0; });
        job_ = nullptr;
        jobTasks_ = 0;
        err = firstError_;
        firstError_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
parallelFor(std::int64_t begin, std::int64_t end, int threads,
            std::int64_t grain,
            const std::function<void(std::int64_t, std::int64_t)> &body)
{
    const std::int64_t range = end - begin;
    if (range <= 0)
        return;
    if (grain < 1)
        grain = 1;
    std::int64_t maxChunks = (range + grain - 1) / grain;
    int chunks = static_cast<int>(
        std::min<std::int64_t>(std::max(threads, 1), maxChunks));
    if (chunks <= 1 || ThreadPool::inTask()) {
        body(begin, end);
        return;
    }

    ThreadPool &pool = ThreadPool::instance();
    pool.ensure(chunks);

    // Static partition: chunk c covers an equal share, remainder spread
    // over the leading chunks.
    const std::int64_t base = range / chunks;
    const std::int64_t rem = range % chunks;
    pool.run(chunks, [&](int c) {
        std::int64_t b = begin + c * base + std::min<std::int64_t>(c, rem);
        std::int64_t e = b + base + (c < rem ? 1 : 0);
        if (b < e)
            body(b, e);
    });
}

} // namespace mealib

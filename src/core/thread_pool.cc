#include "core/thread_pool.hh"

#include <algorithm>
#include <cstdlib>

#include "core/logging.hh"

namespace recperf {

namespace {

// Set for pool workers (permanently) and for any thread currently
// executing inside a parallelFor region, so nested calls degrade to
// inline execution instead of deadlocking on the shared pool.
thread_local bool t_in_parallel_region = false;

struct RegionGuard
{
    RegionGuard() { t_in_parallel_region = true; }
    ~RegionGuard() { t_in_parallel_region = false; }
};

int
clampThreads(int threads)
{
    return std::clamp(threads, 1, ThreadPool::kMaxThreads);
}

std::atomic<PoolChunkHook> g_chunk_hook{nullptr};

int
defaultThreadCount()
{
    if (const char *env = std::getenv("RECPERF_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && v > 0)
            return clampThreads(static_cast<int>(v));
    }
    unsigned hw = std::thread::hardware_concurrency();
    return clampThreads(hw ? static_cast<int>(hw) : 1);
}

} // namespace

/**
 * One parallelFor invocation. Shared-owned: each worker that wakes for
 * it holds a reference, so a straggler arriving after the caller has
 * already retired the region finds only an exhausted chunk counter,
 * never freed memory. The fn pointer targets the caller's stack but is
 * only dereferenced for successfully claimed chunks, all of which
 * complete before the caller returns.
 */
struct ThreadPool::Region
{
    const std::function<void(int64_t, int64_t)> *fn = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    int64_t num_chunks = 0;
    std::atomic<int64_t> next_chunk{0};
    std::atomic<int64_t> done_chunks{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error; // first error; guarded by error_mu
    std::mutex error_mu;
};

ThreadPool::ThreadPool(int threads) : nthreads_(clampThreads(threads))
{
    workers_.reserve(static_cast<size_t>(nthreads_ - 1));
    for (int i = 0; i < nthreads_ - 1; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    // Workers are always "inside" a region: anything they run that
    // calls parallelFor recursively must execute inline.
    t_in_parallel_region = true;
    uint64_t seen_generation = 0;
    for (;;) {
        std::shared_ptr<Region> region;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [&] {
                return shutdown_ || generation_ != seen_generation;
            });
            if (shutdown_)
                return;
            seen_generation = generation_;
            region = region_;
        }
        if (region)
            runChunks(*region);
    }
}

void
ThreadPool::runChunks(Region &region)
{
    PoolChunkHook hook = g_chunk_hook.load(std::memory_order_acquire);
    for (;;) {
        int64_t chunk = region.next_chunk.fetch_add(
            1, std::memory_order_relaxed);
        if (chunk >= region.num_chunks)
            return;
        // After a failure the remaining chunks are claimed but not
        // executed, so the region still quiesces deterministically.
        if (!region.failed.load(std::memory_order_acquire)) {
            int64_t lo = region.begin + chunk * region.grain;
            int64_t hi = std::min(lo + region.grain, region.end);
            std::chrono::steady_clock::time_point t0;
            if (hook)
                t0 = std::chrono::steady_clock::now();
            try {
                (*region.fn)(lo, hi);
            } catch (...) {
                std::lock_guard<std::mutex> lock(region.error_mu);
                if (!region.error)
                    region.error = std::current_exception();
                region.failed.store(true, std::memory_order_release);
            }
            if (hook)
                hook(lo, hi, t0, std::chrono::steady_clock::now());
        }
        region.done_chunks.fetch_add(1, std::memory_order_acq_rel);
    }
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)> &fn)
{
    RP_ASSERT(grain > 0, "parallelFor grain must be positive, got %lld",
              static_cast<long long>(grain));
    int64_t total = end - begin;
    if (total <= 0)
        return;
    // Inline paths: a 1-thread pool and a range that fits one grain
    // run fn directly WITHOUT marking a region, so a nested
    // parallelFor inside fn (e.g. a gemmBt called for a batch of one)
    // can still use the pool. Only genuinely nested calls inline with
    // parallelism suppressed.
    if (t_in_parallel_region) {
        fn(begin, end);
        return;
    }
    if (nthreads_ == 1 || total <= grain) {
        fn(begin, end);
        return;
    }

    // Cap the chunk count at a small multiple of the pool size: enough
    // slack for load balancing, few enough that the per-chunk atomic
    // claim is noise.
    int64_t max_chunks = static_cast<int64_t>(nthreads_) * 4;
    int64_t eff_grain =
        std::max(grain, (total + max_chunks - 1) / max_chunks);

    auto region = std::make_shared<Region>();
    region->fn = &fn;
    region->begin = begin;
    region->end = end;
    region->grain = eff_grain;
    region->num_chunks = (total + eff_grain - 1) / eff_grain;

    {
        std::lock_guard<std::mutex> lock(mu_);
        region_ = region;
        ++generation_;
    }
    work_cv_.notify_all();

    {
        RegionGuard guard;
        runChunks(*region);
    }

    // The caller ran out of chunks; any remaining ones are in flight on
    // workers and each lasts at least a grain of work, so a yield loop
    // is both short-lived and scheduler-friendly (it donates the CPU to
    // exactly the threads we are waiting on when cores are scarce).
    while (region->done_chunks.load(std::memory_order_acquire) !=
           region->num_chunks) {
        std::this_thread::yield();
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        if (region_ == region)
            region_.reset();
    }

    if (region->error)
        std::rethrow_exception(region->error);
}

namespace {

std::mutex g_pool_mu;
std::shared_ptr<ThreadPool> g_pool; // guarded by g_pool_mu

} // namespace

std::shared_ptr<ThreadPool>
globalThreadPool()
{
    std::lock_guard<std::mutex> lock(g_pool_mu);
    if (!g_pool)
        g_pool = std::make_shared<ThreadPool>(defaultThreadCount());
    return g_pool;
}

void
setGlobalThreadCount(int threads)
{
    std::shared_ptr<ThreadPool> replaced; // destroyed outside the lock
    {
        std::lock_guard<std::mutex> lock(g_pool_mu);
        int want = threads > 0 ? clampThreads(threads)
                               : defaultThreadCount();
        if (g_pool && g_pool->threadCount() == want)
            return;
        replaced = std::move(g_pool);
        g_pool = std::make_shared<ThreadPool>(want);
    }
}

int
globalThreadCount()
{
    return globalThreadPool()->threadCount();
}

void
setPoolChunkHook(PoolChunkHook hook)
{
    g_chunk_hook.store(hook, std::memory_order_release);
}

void
parallelFor(int64_t begin, int64_t end, int64_t grain,
            const std::function<void(int64_t, int64_t)> &fn)
{
    // Hold a reference for the duration so a concurrent
    // setGlobalThreadCount cannot destroy the pool under us.
    std::shared_ptr<ThreadPool> pool = globalThreadPool();
    pool->parallelFor(begin, end, grain, fn);
}

} // namespace recperf

/**
 * @file
 * Tests for the shared worker pool: exact index coverage under every
 * pool size / grain combination, exception propagation, nested-call
 * degradation, oversubscription, and the global-pool knobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/logging.hh"
#include "core/thread_pool.hh"

namespace recperf {
namespace {

/** Restores the default global pool after each test. */
class GlobalPoolFixture : public ::testing::Test
{
  protected:
    void TearDown() override { setGlobalThreadCount(0); }
};

TEST(ThreadPool, CoverageIsExact)
{
    for (int threads : {1, 2, 3, 4, 8}) {
        ThreadPool pool(threads);
        for (int64_t total : {0ll, 1ll, 5ll, 31ll, 32ll, 33ll, 1000ll,
                              4097ll}) {
            for (int64_t grain : {1ll, 7ll, 32ll, 100ll}) {
                std::vector<std::atomic<int>> hits(
                    static_cast<size_t>(total));
                pool.parallelFor(0, total, grain,
                                 [&](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i)
                        hits[static_cast<size_t>(i)].fetch_add(1);
                });
                for (int64_t i = 0; i < total; ++i) {
                    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
                        << "threads=" << threads << " total=" << total
                        << " grain=" << grain << " index=" << i;
                }
            }
        }
    }
}

TEST(ThreadPool, NonZeroBeginCovered)
{
    ThreadPool pool(4);
    std::atomic<int64_t> sum{0};
    pool.parallelFor(100, 200, 9, [&](int64_t lo, int64_t hi) {
        int64_t local = 0;
        for (int64_t i = lo; i < hi; ++i)
            local += i;
        sum.fetch_add(local);
    });
    // sum of [100, 200) = (100+199)*100/2
    EXPECT_EQ(sum.load(), 14950);
}

TEST(ThreadPool, EmptyAndInvertedRangesDoNothing)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
    pool.parallelFor(5, 3, 1, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, RejectsNonPositiveGrain)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(0, 10, 0, [](int64_t, int64_t) {}),
                 PanicError);
}

TEST(ThreadPool, ChunksAreOrderedAndWithinBounds)
{
    ThreadPool pool(3);
    std::atomic<bool> ok{true};
    pool.parallelFor(0, 1000, 13, [&](int64_t lo, int64_t hi) {
        if (!(0 <= lo && lo < hi && hi <= 1000))
            ok = false;
    });
    EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 1000, 1,
                         [&](int64_t lo, int64_t) {
            if (lo >= 500)
                throw std::runtime_error("boom");
        }),
        std::runtime_error);
}

TEST(ThreadPool, PoolUsableAfterException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(0, 100, 1,
                                  [](int64_t, int64_t) {
        throw std::runtime_error("boom");
    }),
                 std::runtime_error);

    std::atomic<int64_t> covered{0};
    pool.parallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
        covered.fetch_add(hi - lo);
    });
    EXPECT_EQ(covered.load(), 1000);
}

/** Chunks the pool dispatched while countPooledChunk is installed. */
std::atomic<int64_t> g_pooled_chunks{0};

void
countPooledChunk(int64_t, int64_t, std::chrono::steady_clock::time_point,
                 std::chrono::steady_clock::time_point)
{
    g_pooled_chunks.fetch_add(1);
}

TEST(ThreadPool, NestedCallsRunInlineWithExactCoverage)
{
    ThreadPool pool(4);
    constexpr int64_t kOuter = 16;
    constexpr int64_t kInner = 100;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    g_pooled_chunks = 0;
    setPoolChunkHook(countPooledChunk);
    pool.parallelFor(0, kOuter, 1, [&](int64_t olo, int64_t ohi) {
        for (int64_t o = olo; o < ohi; ++o) {
            // The nested call runs inline on this thread: it
            // dispatches no pool chunks of its own.
            pool.parallelFor(0, kInner, 1, [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i)
                    hits[static_cast<size_t>(o * kInner + i)]
                        .fetch_add(1);
            });
        }
    });
    setPoolChunkHook(nullptr);
    EXPECT_EQ(g_pooled_chunks.load(), kOuter); // the outer chunks only
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "flat index " << i;
}

TEST(ThreadPool, SmallRangeInlineDoesNotSuppressNestedParallelism)
{
    ThreadPool pool(4);
    // total <= grain executes inline on the caller WITHOUT entering a
    // region, so an op wrapped in a trivial outer loop keeps its inner
    // parallelism: the nested call dispatches pool chunks.
    g_pooled_chunks = 0;
    setPoolChunkHook(countPooledChunk);
    pool.parallelFor(0, 1, 1, [&](int64_t, int64_t) {
        pool.parallelFor(0, 100, 1, [](int64_t, int64_t) {});
    });
    setPoolChunkHook(nullptr);
    EXPECT_GT(g_pooled_chunks.load(), 1);
}

TEST(ThreadPool, OversubscriptionCompletes)
{
    // Far more threads than this machine has cores: the pool must
    // still cover every index exactly once and terminate.
    ThreadPool pool(64);
    EXPECT_EQ(pool.threadCount(), 64);
    std::atomic<int64_t> covered{0};
    pool.parallelFor(0, 1 << 20, 1024, [&](int64_t lo, int64_t hi) {
        covered.fetch_add(hi - lo);
    });
    EXPECT_EQ(covered.load(), 1 << 20);
}

TEST(ThreadPool, ClampsThreadCount)
{
    ThreadPool tiny(0);
    EXPECT_EQ(tiny.threadCount(), 1);
    ThreadPool negative(-5);
    EXPECT_EQ(negative.threadCount(), 1);
}

TEST_F(GlobalPoolFixture, SetGlobalThreadCount)
{
    setGlobalThreadCount(3);
    EXPECT_EQ(globalThreadCount(), 3);
    setGlobalThreadCount(5);
    EXPECT_EQ(globalThreadCount(), 5);
    setGlobalThreadCount(0);
    EXPECT_GE(globalThreadCount(), 1);
}

TEST_F(GlobalPoolFixture, EnvVarSetsDefault)
{
    ::setenv("RECPERF_THREADS", "7", /*overwrite=*/1);
    setGlobalThreadCount(0); // re-resolve the default
    EXPECT_EQ(globalThreadCount(), 7);
    ::unsetenv("RECPERF_THREADS");
    setGlobalThreadCount(0);
    EXPECT_GE(globalThreadCount(), 1);
}

TEST_F(GlobalPoolFixture, FreeFunctionUsesGlobalPool)
{
    setGlobalThreadCount(4);
    std::atomic<int64_t> covered{0};
    parallelFor(0, 12345, 100, [&](int64_t lo, int64_t hi) {
        covered.fetch_add(hi - lo);
    });
    EXPECT_EQ(covered.load(), 12345);
}

} // namespace
} // namespace recperf

/**
 * @file
 * Kernel cache / microkernel engine tests: memoization (tune once,
 * hit forever), concurrent first-touch, the pinned-ISA bitwise
 * determinism contract across thread counts and cold/warm runs,
 * vectorized-vs-reference tolerance on Table I and ragged shapes,
 * and warm-cache speedup at the model level.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "machine/simd.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "obs/metrics.hh"
#include "ops/fully_connected.hh"
#include "ops/kernel_cache.hh"
#include "ops/microkernels.hh"
#include "ops/quantized_embedding.hh"
#include "ops/reference.hh"
#include "ops/sparse_lengths_sum.hh"

using namespace recperf;

namespace {

/** ISA tiers usable on this host *and* compiled into this binary. */
std::vector<KernelIsa>
usableIsas()
{
    std::vector<KernelIsa> isas;
    for (int t = 0; t <= static_cast<int>(detectIsa()); ++t) {
        KernelIsa isa = static_cast<KernelIsa>(t);
        if (microkernels::kernelsFor(isa).available)
            isas.push_back(isa);
    }
    return isas;
}

/** The cache's metrics export. */
obs::MetricsSnapshot
exported(const KernelCache &cache)
{
    obs::MetricsRegistry reg;
    cache.exportMetrics(reg);
    return reg.snapshot();
}

/** Memoized entries: the export has one `.calls` counter per entry. */
size_t
entries(const KernelCache &cache)
{
    size_t n = 0;
    for (const auto &[name, value] : exported(cache).counters)
        n += name.ends_with(".calls");
    return n;
}

class KernelCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        threads_before_ = globalThreadCount();
        KernelCache::global().setPolicy(IsaPolicy{});
        KernelCache::global().setTuningEnabled(true);
    }

    void
    TearDown() override
    {
        setGlobalThreadCount(threads_before_);
        KernelCache::global().setPolicy(IsaPolicy{});
        KernelCache::global().setTuningEnabled(true);
    }

    int threads_before_ = 1;
};

Tensor
randomTensor(Shape shape, Rng &rng)
{
    Tensor t(shape);
    t.fillUniform(rng, -1.0f, 1.0f);
    return t;
}

/** gemmBt against the naive triple loop, relative 1e-4. */
void
expectGemmMatchesReference(int64_t m, int64_t n, int64_t k)
{
    Rng rng(7 + static_cast<uint64_t>(m * 131 + n * 17 + k));
    Tensor a = randomTensor({m, k}, rng);
    Tensor b = randomTensor({n, k}, rng);
    Tensor c({m, n});
    gemmBt(a.data(), b.data(), c.data(), m, n, k, /*accumulate=*/false);
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float want = 0.0f;
            for (int64_t p = 0; p < k; ++p)
                want += a.at(i, p) * b.at(j, p);
            float got = c.at(i, j);
            float tol = 1e-4f * std::max(1.0f, std::fabs(want));
            ASSERT_NEAR(want, got, tol)
                << "m" << m << " n" << n << " k" << k << " at (" << i
                << ", " << j << ")";
        }
    }
}

} // namespace

TEST_F(KernelCacheTest, DetectIsaIsStableAndNamed)
{
    KernelIsa first = detectIsa();
    EXPECT_EQ(first, detectIsa());
    EXPECT_STRNE("unknown", kernelIsaName(first));
    // The scalar tier is always usable.
    EXPECT_TRUE(microkernels::kernelsFor(KernelIsa::Scalar).available);
    EXPECT_FALSE(usableIsas().empty());
}

TEST_F(KernelCacheTest, IsaPolicyParsing)
{
    IsaPolicy p;
    EXPECT_EQ("", isaPolicyFromName("auto", &p));
    EXPECT_TRUE(p.autoSelect);
    EXPECT_EQ("", isaPolicyFromName("scalar", &p));
    EXPECT_FALSE(p.autoSelect);
    EXPECT_EQ(KernelIsa::Scalar, p.pinned);
    EXPECT_TRUE(p.allows(KernelIsa::Scalar));
    EXPECT_FALSE(p.allows(KernelIsa::Avx2));

    std::string err = isaPolicyFromName("bogus", &p);
    EXPECT_NE(std::string::npos, err.find("unknown ISA"));
    if (detectIsa() < KernelIsa::Avx512) {
        err = isaPolicyFromName("avx512", &p);
        EXPECT_NE(std::string::npos, err.find("does not support"));
    }
}

TEST_F(KernelCacheTest, PoolingBucketRoundsToNearestPowerOfTwo)
{
    EXPECT_EQ(0, poolingBucket(0));
    EXPECT_EQ(1, poolingBucket(1));
    EXPECT_EQ(4, poolingBucket(5));
    EXPECT_EQ(64, poolingBucket(80));
    EXPECT_EQ(128, poolingBucket(96)); // tie goes up
    EXPECT_EQ(128, poolingBucket(100));
}

TEST_F(KernelCacheTest, ColdMissTunesOnceThenHits)
{
    KernelCache &cache = KernelCache::global();
    Rng rng(11);
    Tensor a = randomTensor({8, 48}, rng);
    Tensor b = randomTensor({24, 48}, rng);
    Tensor c({8, 24});
    for (int round = 0; round < 3; ++round)
        gemmBt(a.data(), b.data(), c.data(), 8, 24, 48, false);
    EXPECT_EQ(1u, cache.tuneCount());
    EXPECT_GE(exported(cache).counter("kernel.cache.hits"), 2u);
    EXPECT_EQ(1u, entries(cache));
}

TEST_F(KernelCacheTest, SlsTunesOncePerShape)
{
    KernelCache &cache = KernelCache::global();
    Rng rng(13);
    EmbeddingTable table(100, 32, rng);
    std::vector<int64_t> ids = {1, 2, 3, 4, 5, 6};
    std::vector<int64_t> lengths = {3, 3};
    (void)table.forward(ids, lengths, SlsReduction::Sum);
    (void)table.forward(ids, lengths, SlsReduction::Sum);
    EXPECT_EQ(1u, cache.tuneCount());

    EmbeddingTable other(100, 64, rng); // different dim -> new entry
    std::vector<int64_t> ids2 = {7, 8, 9, 10, 11, 12};
    (void)other.forward(ids2, lengths, SlsReduction::Sum);
    EXPECT_EQ(2u, cache.tuneCount());
}

TEST_F(KernelCacheTest, ConcurrentFirstTouchTunesExactlyOnce)
{
    // One gemmBt per item inside parallelFor, with more items than
    // pool threads: every worker first-touches the same (m, n, k)
    // shape at once; the cache must tune it exactly once. The TSan CI
    // leg runs this with RECPERF_THREADS=4.
    setGlobalThreadCount(4);
    KernelCache &cache = KernelCache::global();
    const int64_t items = 8, m = 6, n = 10, k = 20;
    Rng rng(17);
    std::vector<Tensor> a, b, c;
    for (int64_t i = 0; i < items; ++i) {
        a.push_back(randomTensor({m, k}, rng));
        b.push_back(randomTensor({n, k}, rng));
        c.emplace_back(Shape{m, n});
    }
    parallelFor(0, items, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            gemmBt(a[i].data(), b[i].data(), c[i].data(), m, n, k,
                   /*accumulate=*/false);
        }
    });
    EXPECT_EQ(1u, cache.tuneCount());
    Tensor zero_bias({n});
    for (int64_t i = 0; i < items; ++i) {
        Tensor want = reference::fullyConnected(a[i], b[i], zero_bias);
        EXPECT_TRUE(c[i].allClose(want, 1e-4f)) << "item " << i;
    }
}

TEST_F(KernelCacheTest, PinnedIsaBitwiseAcrossThreadCountsAndColdWarm)
{
    // The determinism contract: with a pinned tier, results are
    // bit-identical across thread counts (warm cache) and across
    // cold/warm runs (a cold re-tune may pick different blocking —
    // blocking is bit-neutral by construction).
    const int64_t m = 33, n = 65, k = 129; // ragged on purpose
    Rng rng(19);
    Tensor a = randomTensor({m, k}, rng);
    Tensor b = randomTensor({n, k}, rng);
    const size_t bytes = static_cast<size_t>(m * n) * sizeof(float);

    for (KernelIsa isa : usableIsas()) {
        KernelCache::global().setPolicy(IsaPolicy{false, isa});

        setGlobalThreadCount(1);
        Tensor c1({m, n});
        gemmBt(a.data(), b.data(), c1.data(), m, n, k, false);

        setGlobalThreadCount(4); // warm cache, different thread count
        Tensor c4({m, n});
        gemmBt(a.data(), b.data(), c4.data(), m, n, k, false);
        EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), bytes))
            << "thread-count drift on " << kernelIsaName(isa);

        KernelCache::global().setPolicy(IsaPolicy{false, isa}); // cold
        Tensor cc({m, n});
        gemmBt(a.data(), b.data(), cc.data(), m, n, k, false);
        EXPECT_EQ(0, std::memcmp(c1.data(), cc.data(), bytes))
            << "cold/warm drift on " << kernelIsaName(isa);
    }
}

TEST_F(KernelCacheTest, VectorizedMatchesReferenceOnTableIShapes)
{
    // Table I GEMM shapes (batch-256 RMC1, batch-64 RMC3) plus ragged
    // edge cases; every usable tier must sit within 1e-4 relative of
    // the naive reference.
    struct Shape
    {
        int64_t m, n, k;
    };
    const Shape shapes[] = {
        {256, 128, 128}, {256, 128, 160}, {64, 256, 512}, {64, 512, 256},
        {3, 7, 129},     {1, 5, 1},       {16, 31, 65},   {33, 257, 300},
    };
    for (KernelIsa isa : usableIsas()) {
        KernelCache::global().setPolicy(IsaPolicy{false, isa});
        for (const Shape &s : shapes)
            expectGemmMatchesReference(s.m, s.n, s.k);
    }
}

TEST_F(KernelCacheTest, SlsVectorTiersBitwiseMatchScalar)
{
    // Float SLS is element-wise vertical adds: vector tiers must be
    // *bitwise* identical to scalar, not merely close.
    Rng rng(23);
    EmbeddingTable table(500, 48, rng); // 48 exercises the lane tail
    std::vector<int64_t> ids, lengths;
    Rng idrng(29);
    for (int slot = 0; slot < 40; ++slot) {
        int64_t len = static_cast<int64_t>(idrng.nextBelow(20));
        lengths.push_back(len);
        for (int64_t j = 0; j < len; ++j)
            ids.push_back(static_cast<int64_t>(idrng.nextBelow(500)));
    }

    KernelCache::global().setPolicy(IsaPolicy{false, KernelIsa::Scalar});
    Tensor want = table.forward(ids, lengths, SlsReduction::Mean);
    for (KernelIsa isa : usableIsas()) {
        if (isa == KernelIsa::Scalar)
            continue;
        KernelCache::global().setPolicy(IsaPolicy{false, isa});
        Tensor got = table.forward(ids, lengths, SlsReduction::Mean);
        EXPECT_EQ(0,
                  std::memcmp(want.data(), got.data(),
                              static_cast<size_t>(want.size()) *
                                  sizeof(float)))
            << "SLS bits drifted on " << kernelIsaName(isa);
    }
}

TEST_F(KernelCacheTest, QuantizedSlsWithinToleranceOfScalar)
{
    // Vector tiers fuse dequantize into one FMA (one rounding instead
    // of two), so quantized SLS carries a tolerance contract.
    Rng rng(31);
    EmbeddingTable source(300, 40, rng);
    QuantizedEmbeddingTable qtable(source);
    std::vector<int64_t> ids, lengths;
    Rng idrng(37);
    for (int slot = 0; slot < 24; ++slot) {
        int64_t len = static_cast<int64_t>(idrng.nextBelow(16));
        lengths.push_back(len);
        for (int64_t j = 0; j < len; ++j)
            ids.push_back(static_cast<int64_t>(idrng.nextBelow(300)));
    }

    KernelCache::global().setPolicy(IsaPolicy{false, KernelIsa::Scalar});
    Tensor want = qtable.forward(ids, lengths, SlsReduction::Sum);
    for (KernelIsa isa : usableIsas()) {
        if (isa == KernelIsa::Scalar)
            continue;
        KernelCache::global().setPolicy(IsaPolicy{false, isa});
        Tensor got = qtable.forward(ids, lengths, SlsReduction::Sum);
        EXPECT_TRUE(got.allClose(want, 1e-4f))
            << "quantized SLS drifted past tolerance on "
            << kernelIsaName(isa);
    }
}

TEST_F(KernelCacheTest, AccumulateFlagAndDegenerateShapes)
{
    Rng rng(41);
    Tensor a = randomTensor({4, 12}, rng);
    Tensor b = randomTensor({6, 12}, rng);
    Tensor base({4, 6});
    gemmBt(a.data(), b.data(), base.data(), 4, 6, 12, false);

    Tensor twice({4, 6});
    gemmBt(a.data(), b.data(), twice.data(), 4, 6, 12, false);
    gemmBt(a.data(), b.data(), twice.data(), 4, 6, 12, true);
    for (int64_t i = 0; i < twice.size(); ++i)
        EXPECT_FLOAT_EQ(2.0f * base.at(i), twice.at(i));

    // k == 0 zero-fills (no kernel dispatch), m == 0 is a no-op.
    Tensor zk({4, 6});
    zk.fill(7.0f);
    gemmBt(a.data(), b.data(), zk.data(), 4, 6, 0, false);
    for (int64_t i = 0; i < zk.size(); ++i)
        EXPECT_EQ(0.0f, zk.at(i));
    gemmBt(a.data(), b.data(), zk.data(), 0, 6, 12, false);
}

TEST_F(KernelCacheTest, GenericModeInstallsDefaultPlanWithoutTuning)
{
    KernelCache &cache = KernelCache::global();
    cache.setTuningEnabled(false);
    Rng rng(43);
    Tensor a = randomTensor({8, 32}, rng);
    Tensor b = randomTensor({16, 32}, rng);
    Tensor c({8, 16});
    gemmBt(a.data(), b.data(), c.data(), 8, 16, 32, false);
    EXPECT_EQ(0u, cache.tuneCount());
    EXPECT_EQ(1u, entries(cache));
    EXPECT_NE(std::string::npos, cache.dumpTable().find("tuning off"));

    // Generic still computes the right answer.
    Tensor bias({16});
    Tensor want = reference::fullyConnected(a, b, bias);
    EXPECT_TRUE(c.allClose(want, 1e-4f));
}

TEST_F(KernelCacheTest, DumpTableAndMetricsExport)
{
    KernelCache &cache = KernelCache::global();
    Rng rng(47);
    Tensor a = randomTensor({8, 24}, rng);
    Tensor b = randomTensor({12, 24}, rng);
    Tensor c({8, 12});
    gemmBt(a.data(), b.data(), c.data(), 8, 12, 24, false);
    gemmBt(a.data(), b.data(), c.data(), 8, 12, 24, false);

    std::string table = cache.dumpTable();
    EXPECT_NE(std::string::npos, table.find("gemm m8"));
    EXPECT_NE(std::string::npos, table.find("calls"));

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.reset();
    cache.exportMetrics(reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(2u, snap.counter("kernel.gemm.m8n12k24.calls"));
    EXPECT_EQ(cache.tuneCount(), snap.counter("kernel.cache.tunes"));
    EXPECT_EQ(static_cast<double>(static_cast<int>(detectIsa())),
              snap.gauge("hw.isa.detected"));
    EXPECT_GE(snap.gauge("kernel.gemm.m8n12k24.tuning_us"), 0.0);
    reg.reset();
}

TEST_F(KernelCacheTest, WarmCacheForwardNotSlowerThanColdRun)
{
    // Model-level "eval second run >= first run throughput": the cold
    // forward pays every tuning sweep; warm forwards just dispatch.
    ModelConfig cfg = rmc1Small().functionalScale(256);
    Rng rng(53);
    RecModel model(cfg, rng);
    ModelInput input = model.randomInput(4, rng);

    using Clock = std::chrono::steady_clock;
    auto c0 = Clock::now();
    (void)model.forward(input);
    double cold = std::chrono::duration<double>(Clock::now() - c0).count();

    double warm = cold;
    for (int i = 0; i < 3; ++i) {
        auto w0 = Clock::now();
        (void)model.forward(input);
        warm = std::min(
            warm,
            std::chrono::duration<double>(Clock::now() - w0).count());
    }
    EXPECT_GT(KernelCache::global().tuneCount(), 0u);
    EXPECT_LE(warm, cold);
}

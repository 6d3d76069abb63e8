/**
 * @file
 * Functional integrity-layer tests: per-row checksums over fp32
 * embedding state, bit flips, golden-copy repair, inline sampled
 * verification on the fp32 and quantized SLS hot paths, and the
 * disabled-layer contract — bitwise-identical
 * output at every thread count with zero verification work.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "obs/metrics.hh"
#include "ops/integrity.hh"
#include "ops/quantized_embedding.hh"
#include "ops/sparse_lengths_sum.hh"
#include "tensor/tensor.hh"

namespace recperf {
namespace {

class IntegrityTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        IntegrityRuntime::global().reset();
        setGlobalThreadCount(0);
    }
};

EmbeddingTable
makeTable(int64_t rows, int64_t dim, uint64_t seed = 7)
{
    Rng rng(seed);
    return EmbeddingTable(rows, dim, rng);
}

// Pooled lookup covering rows [0, rows): `slots` slots of `per` IDs.
void
makeLookup(int64_t rows, int64_t slots, int64_t per, uint64_t seed,
           std::vector<int64_t> &ids, std::vector<int64_t> &lengths)
{
    Rng rng(seed);
    ids.clear();
    lengths.assign(static_cast<size_t>(slots), per);
    for (int64_t i = 0; i < slots * per; ++i)
        ids.push_back(static_cast<int64_t>(
            rng.nextBelow(static_cast<uint64_t>(rows))));
}

TEST_F(IntegrityTest, SealVerifyAndScanFp32)
{
    EmbeddingTable table = makeTable(64, 16);
    IntegrityShield shield = IntegrityShield::forTable(table);
    shield.seal();
    EXPECT_EQ(shield.rows(), 64);
    EXPECT_EQ(shield.rowBytes(), 16u * sizeof(float));
    EXPECT_TRUE(shield.scanCorrupted().empty());

    shield.flipBit(17, 5);
    EXPECT_FALSE(shield.verifyRow(17));
    EXPECT_TRUE(shield.verifyRow(16));
    std::vector<int64_t> bad = shield.scanCorrupted();
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0], 17);

    // Repair restores the golden bytes bit-exactly.
    EXPECT_TRUE(shield.repairRow(17));
    EXPECT_TRUE(shield.verifyRow(17));
    EXPECT_FALSE(shield.repairRow(17)); // already clean
}

TEST_F(IntegrityTest, FlipBitIsitsOwnInverse)
{
    EmbeddingTable table = makeTable(8, 4);
    std::vector<float> before(
        table.table().data(),
        table.table().data() + table.paramCount());
    IntegrityShield shield = IntegrityShield::forTable(table);
    shield.seal();
    shield.flipBit(3, 21);
    EXPECT_FALSE(shield.verifyRow(3));
    shield.flipBit(3, 21);
    EXPECT_TRUE(shield.verifyRow(3));
    EXPECT_EQ(std::memcmp(before.data(), table.table().data(),
                          before.size() * sizeof(float)),
              0);
}

TEST_F(IntegrityTest, InlineVerificationDetectsAndRepairsOnHotPath)
{
    EmbeddingTable table = makeTable(128, 16);
    std::vector<int64_t> ids, lengths;
    makeLookup(128, 8, 4, 23, ids, lengths);
    Tensor clean = table.forward(ids, lengths);

    IntegrityShield shield = IntegrityShield::forTable(table);
    shield.seal();
    // Corrupt a row the lookup touches.
    shield.flipBit(ids[0], 13);
    IntegrityRuntime &rt = IntegrityRuntime::global();
    rt.configure(1.0, /*repair_on_detect=*/true);
    rt.attach(&table, &shield);
    rt.setEnabled(true);

    Tensor healed = table.forward(ids, lengths);
    EXPECT_EQ(rt.batchesSeen(), 1u);
    EXPECT_EQ(rt.batchesVerified(), 1u);
    EXPECT_EQ(rt.corruptionsDetected(), 1u);
    EXPECT_EQ(rt.rowsRepaired(), 1u);
    // Repair happened before the gather: output matches the clean run.
    EXPECT_EQ(std::memcmp(clean.data(), healed.data(),
                          static_cast<size_t>(clean.size()) *
                              sizeof(float)),
              0);
    EXPECT_TRUE(shield.scanCorrupted().empty());

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.reset();
    rt.exportTo(reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("integrity.inline.detected"), 1u);
    EXPECT_EQ(snap.counter("integrity.inline.repaired"), 1u);
    reg.reset();
}

TEST_F(IntegrityTest, QuantizedInlineHookVerifiesSampledBatches)
{
    EmbeddingTable source = makeTable(96, 8);
    QuantizedEmbeddingTable qtable(source);
    // The runtime verifies whatever shield is registered under the
    // table's key: here the fp32 source rows, keyed by the quantized
    // table, so detection proves the quantized forward reports the
    // rows it touches.
    IntegrityShield shield = IntegrityShield::forTable(source);
    shield.seal();
    shield.flipBit(7, 2);
    IntegrityRuntime &rt = IntegrityRuntime::global();
    rt.configure(1.0);
    rt.attach(&qtable, &shield);
    rt.setEnabled(true);
    std::vector<int64_t> ids = {7, 8, 9}, lengths = {3};
    (void)qtable.forward(ids, lengths);
    EXPECT_EQ(rt.corruptionsDetected(), 1u);
    EXPECT_EQ(rt.rowsRepaired(), 1u);
    EXPECT_TRUE(shield.verifyRow(7));
}

TEST_F(IntegrityTest, SamplingScheduleIsDeterministicAcrossThreadCounts)
{
    std::vector<int64_t> ids, lengths;
    for (int threads : {1, 4}) {
        setGlobalThreadCount(threads);
        IntegrityRuntime &rt = IntegrityRuntime::global();
        rt.reset();
        EmbeddingTable table = makeTable(64, 8);
        IntegrityShield shield = IntegrityShield::forTable(table);
        shield.seal();
        rt.configure(0.25); // verify every 4th batch
        rt.attach(&table, &shield);
        rt.setEnabled(true);
        for (int batch = 0; batch < 10; ++batch) {
            makeLookup(64, 4, 4, 100 + static_cast<uint64_t>(batch),
                       ids, lengths);
            (void)table.forward(ids, lengths);
        }
        EXPECT_EQ(rt.batchesSeen(), 10u) << threads << " threads";
        EXPECT_EQ(rt.batchesVerified(), 2u) << threads << " threads";
        rt.reset();
    }
}

// Satellite: the integrity layer compiled in but *disabled* leaves
// eval output bitwise identical, at 1 and 4 worker threads.
TEST_F(IntegrityTest, DisabledLayerIsBitwiseInvisible)
{
    std::vector<int64_t> ids, lengths;
    makeLookup(256, 16, 5, 42, ids, lengths);
    std::vector<float> want;
    for (int threads : {1, 4}) {
        setGlobalThreadCount(threads);
        EmbeddingTable table = makeTable(256, 32);
        // Shield attached but runtime disabled: the hot path must not
        // even consult it.
        IntegrityShield shield = IntegrityShield::forTable(table);
        shield.seal();
        IntegrityRuntime::global().attach(&table, &shield);
        ASSERT_FALSE(IntegrityRuntime::global().enabled());
        Tensor out = table.forward(ids, lengths);
        EXPECT_EQ(IntegrityRuntime::global().batchesSeen(), 0u);
        std::vector<float> got(
            out.data(), out.data() + out.size());
        if (want.empty())
            want = got;
        else
            EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                  want.size() * sizeof(float)),
                      0)
                << threads << " threads";
        IntegrityRuntime::global().reset();
    }
}

TEST_F(IntegrityTest, Fnv1aMatchesKnownVectors)
{
    // Standard FNV-1a 64 test vectors.
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ULL);
}

} // namespace
} // namespace recperf

/**
 * @file
 * Unit tests for ModelConfig and the production model zoo (Table I).
 */

#include <gtest/gtest.h>

#include "core/logging.hh"
#include "model/config.hh"
#include "model/proxy.hh"
#include "model/zoo.hh"

namespace recperf {
namespace {

/** Embedding parameters across all of @p m's tables. */
int64_t
embParams(const ModelConfig &m)
{
    return m.emb.totalRows() * m.emb.embDim;
}

TEST(ModelConfig, ValidateAcceptsZoo)
{
    for (const ModelConfig &m : allZooModels())
        EXPECT_NO_THROW(m.validate()) << m.name;
}

TEST(ModelConfig, ValidateRejectsBadTop)
{
    ModelConfig m = rmc1Small();
    m.topMlp.back() = 2;
    EXPECT_THROW(m.validate(), PanicError);
    m.topMlp.clear();
    EXPECT_THROW(m.validate(), PanicError);
}

TEST(ModelConfig, ValidateRejectsBottomWithoutDense)
{
    ModelConfig m = rmc1Small();
    m.denseFeatures = 0;
    EXPECT_THROW(m.validate(), PanicError);
}

TEST(ModelConfig, ValidateRejectsIncompleteEmbedding)
{
    ModelConfig m = rmc1Small();
    m.emb.embDim = 0;
    EXPECT_THROW(m.validate(), PanicError);
}

TEST(ModelConfig, TopInputDim)
{
    ModelConfig m = rmc1Small();
    EXPECT_EQ(m.bottomOutDim(), 32);
    EXPECT_EQ(m.topInputDim(), 32 + 4 * 32);
}

TEST(ModelConfig, FcParamCount)
{
    ModelConfig m;
    m.name = "tiny";
    m.denseFeatures = 4;
    m.bottomMlp = {3};
    m.emb = {1, 10, 2, 1};
    m.topMlp = {1};
    m.validate();
    // bottom: 4*3+3 = 15; top input = 3 + 2 = 5; top: 5*1+1 = 6.
    EXPECT_EQ(m.fcParamCount(), 21);
    EXPECT_EQ(embParams(m), 20);
}

TEST(Zoo, EmbeddingStorageAnchors)
{
    // Section III-B: ~100 MB (RMC1), ~10 GB (RMC2), ~1 GB (RMC3).
    double rmc1_mb = rmc1Small().embStorageBytes() / 1e6;
    double rmc2_gb = rmc2Small().embStorageBytes() / 1e9;
    double rmc3_gb = rmc3Small().embStorageBytes() / 1e9;
    EXPECT_GT(rmc1_mb, 50.0);
    EXPECT_LT(rmc1_mb, 200.0);
    EXPECT_GT(rmc2_gb, 5.0);
    EXPECT_LT(rmc2_gb, 15.0);
    EXPECT_GT(rmc3_gb, 0.5);
    EXPECT_LT(rmc3_gb, 2.0);
}

TEST(Zoo, Rmc2HasManyMoreTables)
{
    // Table I: RMC2 has close to an order of magnitude more tables.
    EXPECT_GE(rmc2Small().emb.numTables, 8 * rmc1Small().emb.numTables);
    EXPECT_GE(rmc2Small().emb.numTables, 8 * rmc3Small().emb.numTables);
}

TEST(Zoo, TableCountsWithinFleetRange)
{
    // Section II-C: 4 to 40 embedding tables per model.
    for (const ModelConfig &m : allZooModels()) {
        EXPECT_GE(m.emb.numTables, 4) << m.name;
        EXPECT_LE(m.emb.numTables, 40) << m.name;
    }
}

TEST(Zoo, EmbeddingDimWithinPaperRange)
{
    // Section III-B: output dimension between 24 and 40 for all RMCs.
    for (const ModelConfig &m : allZooModels()) {
        EXPECT_GE(m.emb.embDim, 24) << m.name;
        EXPECT_LE(m.emb.embDim, 40) << m.name;
    }
}

TEST(Zoo, Rmc3FewerLookups)
{
    // RMC1/RMC2 pool ~4x more sparse IDs per table than RMC3.
    EXPECT_GE(rmc1Small().emb.lookupsPerTable,
              3 * rmc3Small().emb.lookupsPerTable);
    EXPECT_GE(rmc2Small().emb.lookupsPerTable,
              3 * rmc3Small().emb.lookupsPerTable);
}

TEST(Zoo, Rmc3WiderBottomFc)
{
    EXPECT_GE(rmc3Small().bottomMlp.front(),
              8 * rmc1Small().bottomMlp.front());
    EXPECT_GE(rmc3Small().denseFeatures, 8 * rmc1Small().denseFeatures);
}

TEST(Zoo, LargeVariantsAreLarger)
{
    EXPECT_GT(rmc1Large().fcParamCount() + embParams(rmc1Large()),
              rmc1Small().fcParamCount() + embParams(rmc1Small()));
    EXPECT_GT(embParams(rmc2Large()), embParams(rmc2Small()));
    EXPECT_GT(rmc3Large().fcParamCount(), rmc3Small().fcParamCount());
}

TEST(Zoo, PaperExampleMatchesSectionVII)
{
    ModelConfig m = rmc1PaperExample();
    EXPECT_EQ(m.emb.numTables, 5);
    EXPECT_EQ(m.emb.rowsPerTable, 100'000);
    EXPECT_EQ(m.emb.embDim, 32);
    EXPECT_EQ(m.emb.lookupsPerTable, 80);
    EXPECT_EQ(m.bottomMlp, (std::vector<int64_t>{128, 64, 32}));
    EXPECT_EQ(m.topMlp, (std::vector<int64_t>{128, 32, 1}));
}

TEST(Zoo, NcfOrdersOfMagnitudeSmaller)
{
    // Fig 12: NCF embedding tables and FC stacks are far smaller than
    // the production ranking models'.
    ModelConfig ncf = ncfConfig();
    EXPECT_LT(ncf.embStorageBytes(), rmc1Small().embStorageBytes());
    EXPECT_LT(ncf.embStorageBytes() * 50, rmc2Small().embStorageBytes());
    EXPECT_LT(ncf.embStorageBytes() * 10, rmc3Small().embStorageBytes());
    EXPECT_EQ(ncf.emb.lookupsPerTable, 1);
    EXPECT_EQ(ncf.denseFeatures, 0);
    EXPECT_NO_THROW(ncf.validate());
}

TEST(Ncf, ConfigApproximationConsistent)
{
    // ncfConfig() models NeuMF (He et al. 2017, the MLPerf-NCF
    // reference) on MovieLens-20m as four uniform tables. Its embedding
    // parameters must stay within 2x of the real model's parameter
    // count: 138k users and 27k items, each with a 64-wide GMF and a
    // 32-wide MLP embedding; MLP tower 2*32 -> 256 -> 128 -> 64; final
    // layer over [GMF; MLP] = 64 + 64 -> 1.
    const int64_t emb = (138'000 + 27'000) * (64 + 32);
    const int64_t mlp = (2 * 32 * 256 + 256) + (256 * 128 + 128) +
        (128 * 64 + 64);
    const int64_t final_layer = (64 + 64) * 1 + 1;
    const int64_t neumf = emb + mlp + final_layer;
    ASSERT_EQ(neumf, 15'897'921);

    double ratio = static_cast<double>(embParams(ncfConfig())) /
        static_cast<double>(neumf);
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
}

TEST(ModelConfig, LookupsPerSample)
{
    EXPECT_EQ(rmc1Small().lookupsPerSample(), 4 * 80);
    EXPECT_EQ(rmc3Small().lookupsPerSample(), 4 * 20);
}

TEST(ModelConfig, InferenceCostScalesWithBatch)
{
    ModelConfig m = rmc1Small();
    OpCost c1 = m.inferenceCost(1);
    OpCost c8 = m.inferenceCost(8);
    EXPECT_GT(c1.flops, 0.0);
    // FLOPs scale exactly linearly with batch.
    EXPECT_NEAR(c8.flops, 8.0 * c1.flops, 1e-6 * c8.flops);
    // Bytes grow sublinearly (weights amortize across the batch).
    EXPECT_LT(c8.bytesRead, 8.0 * c1.bytesRead);
}

TEST(ModelConfig, Rmc3MostComputeIntense)
{
    // Fig 2: RMC3 has the most FLOPs of the three classes.
    EXPECT_GT(rmc3Small().inferenceCost(1).flops,
              10 * rmc1Small().inferenceCost(1).flops);
    EXPECT_GT(rmc3Small().inferenceCost(1).flops,
              rmc2Small().inferenceCost(1).flops);
}

TEST(ModelConfig, Rmc2MostBytes)
{
    // Fig 2: RMC2 reads the most bytes (embedding-heavy).
    EXPECT_GT(rmc2Small().inferenceCost(1).bytesRead,
              rmc1Small().inferenceCost(1).bytesRead);
}

TEST(ModelConfig, FunctionalScaleCapsRows)
{
    ModelConfig scaled = rmc2Small().functionalScale(1024);
    EXPECT_EQ(scaled.emb.rowsPerTable, 1024);
    EXPECT_EQ(scaled.emb.numTables, rmc2Small().emb.numTables);
    EXPECT_NE(scaled.name, rmc2Small().name);
    // Already-small tables are untouched.
    ModelConfig same = rmc1Small().functionalScale(1'000'000'000);
    EXPECT_EQ(same.emb.rowsPerTable, rmc1Small().emb.rowsPerTable);
    EXPECT_EQ(same.name, rmc1Small().name);
}

TEST(ModelClass, Names)
{
    EXPECT_STREQ(modelClassName(ModelClass::RMC1), "RMC1");
    EXPECT_STREQ(modelClassName(ModelClass::NCF), "NCF");
}

TEST(Proxy, Fig2ReferenceSet)
{
    auto proxies = proxyModels();
    ASSERT_EQ(proxies.size(), 5u);
    for (const ProxyModel &p : proxies) {
        EXPECT_GT(p.flopsPerSample, 0.0) << p.name;
        EXPECT_GT(p.paramBytes, 0.0) << p.name;
        double share = 0.0;
        for (const auto &[kind, frac] : p.opShare)
            share += frac;
        EXPECT_NEAR(share, 1.0, 1e-9) << p.name;
    }
}

TEST(Proxy, CnnIntensityFarAboveSls)
{
    // Fig 5's ordering: CNN >> FC > RNN >> SLS in FLOPs/byte.
    double cnn = convLayerCost(2).intensity();
    double fc = fcLayerCost(32).intensity();
    double rnn = lstmLayerCost(8).intensity();
    EXPECT_GT(cnn, fc);
    EXPECT_GT(fc, rnn);
    EXPECT_GT(rnn, 0.25); // all above SLS's ~0.25
}

} // namespace
} // namespace recperf

/**
 * @file
 * Unit and property tests for the FullyConnected operator, validating
 * the blocked GEMM against the naive reference over a shape grid.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/logging.hh"
#include "core/rng.hh"
#include "ops/fully_connected.hh"
#include "ops/reference.hh"

namespace recperf {
namespace {

TEST(FullyConnected, RejectsBadDims)
{
    EXPECT_THROW(FullyConnected(0, 4), PanicError);
    EXPECT_THROW(FullyConnected(4, 0), PanicError);
}

TEST(FullyConnected, ShapesAndParams)
{
    FullyConnected fc(16, 8);
    EXPECT_EQ(fc.inFeatures(), 16);
    EXPECT_EQ(fc.outFeatures(), 8);
    EXPECT_EQ(fc.weight().shape(), (Shape{8, 16}));
    EXPECT_EQ(fc.bias().shape(), (Shape{8}));
    EXPECT_EQ(fc.paramCount(), 16 * 8 + 8);
}

TEST(FullyConnected, ZeroWeightsGiveBias)
{
    FullyConnected fc(4, 3);
    fc.bias().fill(2.5f);
    Tensor x({2, 4});
    x.fill(1.0f);
    Tensor y = fc.forward(x);
    EXPECT_EQ(y.shape(), (Shape{2, 3}));
    for (int64_t i = 0; i < y.size(); ++i)
        EXPECT_EQ(y.at(i), 2.5f);
}

TEST(FullyConnected, IdentityWeights)
{
    FullyConnected fc(3, 3);
    for (int64_t i = 0; i < 3; ++i)
        fc.weight().at(i, i) = 1.0f;
    Tensor x({1, 3});
    x.at(static_cast<int64_t>(0)) = 1.0f;
    x.at(static_cast<int64_t>(1)) = 2.0f;
    x.at(static_cast<int64_t>(2)) = 3.0f;
    Tensor y = fc.forward(x);
    EXPECT_FLOAT_EQ(y.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 3.0f);
}

TEST(FullyConnected, InputShapeValidation)
{
    FullyConnected fc(4, 2);
    EXPECT_THROW(fc.forward(Tensor({3})), PanicError);     // rank 1
    EXPECT_THROW(fc.forward(Tensor({2, 5})), PanicError);  // wrong width
}

TEST(FullyConnected, HeInitializationScale)
{
    Rng rng(5);
    FullyConnected fc(1024, 256, rng);
    double sq = 0.0;
    const Tensor &w = fc.weight();
    for (int64_t i = 0; i < w.size(); ++i)
        sq += static_cast<double>(w.at(i)) * w.at(i);
    double var = sq / static_cast<double>(w.size());
    EXPECT_NEAR(var, 2.0 / 1024.0, 0.3 * 2.0 / 1024.0);
}

TEST(FullyConnectedCost, MatchesClosedForm)
{
    OpCost c = FullyConnected::cost(8, 100, 50);
    EXPECT_DOUBLE_EQ(c.flops, 2.0 * 8 * 100 * 50 + 8 * 50);
    EXPECT_DOUBLE_EQ(c.bytesRead, 4.0 * (100 * 50 + 50 + 8 * 100));
    EXPECT_DOUBLE_EQ(c.bytesWritten, 4.0 * 8 * 50);
}

TEST(FullyConnectedCost, IntensityGrowsWithBatch)
{
    // Weight reuse across the batch raises FLOPs/byte — the mechanism
    // that turns FC compute-bound at large batch (paper §V).
    double prev = 0.0;
    for (int64_t batch : {1, 4, 16, 64, 256}) {
        double intensity = FullyConnected::cost(batch, 512, 512).intensity();
        EXPECT_GT(intensity, prev);
        prev = intensity;
    }
}

TEST(GemmBt, AccumulateFlag)
{
    // C = A * B^T with accumulate adds onto existing contents.
    const float a[2] = {1.0f, 2.0f};    // 1x2
    const float b[2] = {3.0f, 4.0f};    // 1x2 (B^T operand)
    float c[1] = {10.0f};
    gemmBt(a, b, c, 1, 1, 2, /*accumulate=*/true);
    EXPECT_FLOAT_EQ(c[0], 10.0f + 11.0f);
    gemmBt(a, b, c, 1, 1, 2, /*accumulate=*/false);
    EXPECT_FLOAT_EQ(c[0], 11.0f);
}

/** Property sweep: blocked GEMM == naive reference over a shape grid. */
class FcShapeSweep : public ::testing::TestWithParam<
    std::tuple<int64_t, int64_t, int64_t>>
{
};

TEST_P(FcShapeSweep, MatchesReference)
{
    auto [batch, in, out] = GetParam();
    Rng rng(static_cast<uint64_t>(batch * 1'000'003 + in * 1'009 + out));
    FullyConnected fc(in, out, rng);
    fc.bias().fillUniform(rng, -1.0f, 1.0f);

    Tensor x({batch, in});
    x.fillUniform(rng, -1.0f, 1.0f);

    Tensor got = fc.forward(x);
    Tensor want = reference::fullyConnected(x, fc.weight(), fc.bias());
    EXPECT_TRUE(got.allClose(want, 1e-4f))
        << "mismatch at batch=" << batch << " in=" << in << " out=" << out;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, FcShapeSweep,
    ::testing::Combine(
        ::testing::Values<int64_t>(1, 3, 16, 33),
        ::testing::Values<int64_t>(1, 7, 32, 129, 300),
        ::testing::Values<int64_t>(1, 5, 32, 257)));

/**
 * Property sweep over batches of ragged matmuls, C = A * B^T, each a
 * gemmBt call checked against the naive FC reference with zero bias.
 * Items of one batch share a shape, so all but the first run on the
 * kernel-cache entry the first one tuned.
 */
class BmmSweep : public ::testing::TestWithParam<
    std::tuple<int64_t, int64_t, int64_t, int64_t>>
{
};

TEST_P(BmmSweep, MatchesReference)
{
    auto [batch, m, n, k] = GetParam();
    Rng rng(static_cast<uint64_t>(batch * 73 + m * 31 + n * 7 + k));
    Tensor zero_bias({n});
    for (int64_t i = 0; i < batch; ++i) {
        Tensor a({m, k}), b({n, k}), c({m, n});
        a.fillUniform(rng, -1.0f, 1.0f);
        b.fillUniform(rng, -1.0f, 1.0f);
        gemmBt(a.data(), b.data(), c.data(), m, n, k, /*accumulate=*/false);
        Tensor want = reference::fullyConnected(a, b, zero_bias);
        EXPECT_TRUE(c.allClose(want, 1e-4f)) << "item " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BmmSweep,
    ::testing::Combine(::testing::Values<int64_t>(1, 4),
                       ::testing::Values<int64_t>(1, 9, 33),
                       ::testing::Values<int64_t>(1, 8, 17),
                       ::testing::Values<int64_t>(1, 31, 64)));

/** Odd, non-power-of-two, non-cache-line-aligned widths (§III-B). */
class FcOddWidths : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(FcOddWidths, MatchesReference)
{
    int64_t width = GetParam();
    Rng rng(static_cast<uint64_t>(width));
    FullyConnected fc(width, width, rng);
    Tensor x({5, width});
    x.fillUniform(rng, -2.0f, 2.0f);
    Tensor got = fc.forward(x);
    Tensor want = reference::fullyConnected(x, fc.weight(), fc.bias());
    EXPECT_TRUE(got.allClose(want, 1e-4f)) << "width=" << width;
}

INSTANTIATE_TEST_SUITE_P(OddWidths, FcOddWidths,
                         ::testing::Values<int64_t>(13, 63, 65, 100, 255));

} // namespace
} // namespace recperf

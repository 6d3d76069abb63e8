/**
 * @file
 * Unit tests for the dot-product feature interaction.
 */

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "ops/batch_matmul.hh"

namespace recperf {
namespace {

TEST(DotInteraction, PairCount)
{
    Tensor z({3, 5, 8});
    Tensor out = dotInteraction(z);
    EXPECT_EQ(out.shape(), (Shape{3, 10})); // C(5,2) = 10
}

TEST(DotInteraction, KnownPairwiseDots)
{
    // Features: f0 = (1,0), f1 = (0,1), f2 = (1,1).
    Tensor z({1, 3, 2});
    float vals[] = {1, 0, 0, 1, 1, 1};
    for (int64_t i = 0; i < 6; ++i)
        z.at(i) = vals[i];
    Tensor out = dotInteraction(z);
    // Order: (f1,f0), (f2,f0), (f2,f1).
    EXPECT_FLOAT_EQ(out.at(static_cast<int64_t>(0)), 0.0f);
    EXPECT_FLOAT_EQ(out.at(static_cast<int64_t>(1)), 1.0f);
    EXPECT_FLOAT_EQ(out.at(static_cast<int64_t>(2)), 1.0f);
}

TEST(DotInteraction, SymmetricUnderFeatureScaling)
{
    Rng rng(7);
    Tensor z({2, 4, 8});
    z.fillUniform(rng, -1.0f, 1.0f);
    Tensor base = dotInteraction(z);

    // Scaling all features by 2 scales every dot product by 4.
    Tensor scaled = z.reshaped(z.shape());
    for (int64_t i = 0; i < scaled.size(); ++i)
        scaled.at(i) *= 2.0f;
    Tensor quad = dotInteraction(scaled);
    for (int64_t i = 0; i < base.size(); ++i)
        EXPECT_NEAR(quad.at(i), 4.0f * base.at(i), 1e-4f);
}

} // namespace
} // namespace recperf

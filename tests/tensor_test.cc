/**
 * @file
 * Unit tests for the Tensor class.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/logging.hh"
#include "core/rng.hh"
#include "tensor/tensor.hh"

namespace recperf {
namespace {

TEST(Shape, NumElements)
{
    EXPECT_EQ(numElements({}), 1);
    EXPECT_EQ(numElements({5}), 5);
    EXPECT_EQ(numElements({2, 3, 4}), 24);
    EXPECT_EQ(numElements({0, 7}), 0);
}

TEST(Shape, NegativeDimPanics)
{
    EXPECT_THROW(numElements({2, -1}), PanicError);
}

TEST(Shape, ToString)
{
    EXPECT_EQ(shapeToString({2, 3}), "[2, 3]");
    EXPECT_EQ(shapeToString({}), "[]");
}

TEST(Tensor, DefaultIsEmpty)
{
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0);
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t({3, 4});
    EXPECT_EQ(t.size(), 12);
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, RankLimit)
{
    EXPECT_NO_THROW(Tensor({1, 2, 3, 4}));
    EXPECT_THROW(Tensor({1, 2, 3, 4, 5}), PanicError);
}

TEST(Tensor, TwoDimAccess)
{
    Tensor t({2, 3});
    t.at(1, 2) = 9.0f;
    EXPECT_EQ(t.at(1, 2), 9.0f);
    EXPECT_EQ(t.at(1 * 3 + 2), 9.0f); // row-major layout
}

TEST(Tensor, OutOfBoundsPanics)
{
    Tensor t({2, 3});
    EXPECT_THROW(t.at(6), PanicError);
    EXPECT_THROW(t.at(-1), PanicError);
    EXPECT_THROW(t.at(2, 0), PanicError);
    EXPECT_THROW(t.at(0, 3), PanicError);
}

TEST(Tensor, TwoDimAccessOnWrongRankPanics)
{
    Tensor t({6});
    EXPECT_THROW(t.at(0, 0), PanicError);
}

TEST(Tensor, DimAccessor)
{
    Tensor t({4, 5});
    EXPECT_EQ(t.dim(0), 4);
    EXPECT_EQ(t.dim(1), 5);
    EXPECT_THROW(t.dim(2), PanicError);
}

TEST(Tensor, FillUniformRange)
{
    Rng rng(1);
    Tensor t({100});
    t.fillUniform(rng, -2.0f, 3.0f);
    for (int64_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t.at(i), -2.0f);
        EXPECT_LT(t.at(i), 3.0f);
    }
}

TEST(Tensor, FillGaussianStats)
{
    Rng rng(2);
    Tensor t({20'000});
    t.fillGaussian(rng, 2.0f);
    double sum = 0.0, sq = 0.0;
    for (int64_t i = 0; i < t.size(); ++i) {
        sum += t.at(i);
        sq += static_cast<double>(t.at(i)) * t.at(i);
    }
    double n = static_cast<double>(t.size());
    EXPECT_NEAR(sum / n, 0.0, 0.1);
    EXPECT_NEAR(sq / n, 4.0, 0.2);
}

TEST(Tensor, AllCloseExact)
{
    Tensor a({2, 2}), b({2, 2});
    a.fill(1.0f);
    b.fill(1.0f);
    EXPECT_TRUE(a.allClose(b));
}

TEST(Tensor, AllCloseTolerance)
{
    Tensor a({2}), b({2});
    a.fill(1.0f);
    b.fill(1.0f + 1e-6f);
    EXPECT_TRUE(a.allClose(b, 1e-5f));
    EXPECT_FALSE(a.allClose(b, 1e-8f));
}

TEST(Tensor, AllCloseShapeMismatch)
{
    Tensor a({2, 3}), b({3, 2});
    EXPECT_FALSE(a.allClose(b));
}

TEST(Tensor, AllCloseRelativeScaling)
{
    // Large magnitudes get proportionally larger slack.
    Tensor a({1}), b({1});
    a.at(static_cast<int64_t>(0)) = 1e6f;
    b.at(static_cast<int64_t>(0)) = 1e6f + 5.0f;
    EXPECT_TRUE(a.allClose(b, 1e-4f));
    EXPECT_FALSE(a.allClose(b, 1e-7f));
}

TEST(Tensor, Reshape)
{
    Tensor t({2, 6});
    for (int64_t i = 0; i < 12; ++i)
        t.at(i) = static_cast<float>(i);
    Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3);
    EXPECT_EQ(r.dim(1), 4);
    for (int64_t i = 0; i < 12; ++i)
        EXPECT_EQ(r.at(i), static_cast<float>(i));
}

TEST(Tensor, ReshapeBadCountPanics)
{
    Tensor t({2, 6});
    EXPECT_THROW(t.reshaped({5, 2}), PanicError);
}

TEST(Tensor, DataIsCacheLineAligned)
{
    Tensor t({37});
    auto addr = reinterpret_cast<uintptr_t>(t.data());
    EXPECT_EQ(addr % 64, 0u);
}

TEST(Tensor, FillOverwrites)
{
    Tensor t({4});
    t.fill(1.0f);
    t.fill(-2.0f);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_EQ(t.at(i), -2.0f);
}

} // namespace
} // namespace recperf

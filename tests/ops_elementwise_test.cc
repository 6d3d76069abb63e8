/**
 * @file
 * Unit tests for element-wise activations and concat.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/logging.hh"
#include "core/rng.hh"
#include "ops/elementwise.hh"

namespace recperf {
namespace {

TEST(Relu, ClampsNegatives)
{
    Tensor x({4});
    x.at(static_cast<int64_t>(0)) = -1.0f;
    x.at(static_cast<int64_t>(1)) = 0.0f;
    x.at(static_cast<int64_t>(2)) = 2.0f;
    x.at(static_cast<int64_t>(3)) = -0.5f;
    reluInplace(x);
    EXPECT_EQ(x.at(static_cast<int64_t>(0)), 0.0f);
    EXPECT_EQ(x.at(static_cast<int64_t>(1)), 0.0f);
    EXPECT_EQ(x.at(static_cast<int64_t>(2)), 2.0f);
    EXPECT_EQ(x.at(static_cast<int64_t>(3)), 0.0f);
}

TEST(Sigmoid, KnownValues)
{
    Tensor x({3});
    x.at(static_cast<int64_t>(0)) = 0.0f;
    x.at(static_cast<int64_t>(1)) = 100.0f;
    x.at(static_cast<int64_t>(2)) = -100.0f;
    Tensor y = sigmoid(x);
    EXPECT_FLOAT_EQ(y.at(static_cast<int64_t>(0)), 0.5f);
    EXPECT_NEAR(y.at(static_cast<int64_t>(1)), 1.0f, 1e-6f);
    EXPECT_NEAR(y.at(static_cast<int64_t>(2)), 0.0f, 1e-6f);
}

TEST(Sigmoid, OutputInUnitInterval)
{
    // Over extreme inputs fp32 saturates to exactly 0/1, so the closed
    // interval holds; over moderate inputs the open interval holds.
    Rng rng(2);
    Tensor x({1000});
    x.fillUniform(rng, -50.0f, 50.0f);
    Tensor y = sigmoid(x);
    for (int64_t i = 0; i < y.size(); ++i) {
        EXPECT_GE(y.at(i), 0.0f);
        EXPECT_LE(y.at(i), 1.0f);
    }

    x.fillUniform(rng, -10.0f, 10.0f);
    y = sigmoid(x);
    for (int64_t i = 0; i < y.size(); ++i) {
        EXPECT_GT(y.at(i), 0.0f);
        EXPECT_LT(y.at(i), 1.0f);
    }
}

TEST(Sigmoid, Monotone)
{
    Tensor x({2});
    x.at(static_cast<int64_t>(0)) = 1.0f;
    x.at(static_cast<int64_t>(1)) = 2.0f;
    Tensor y = sigmoid(x);
    EXPECT_LT(y.at(static_cast<int64_t>(0)), y.at(static_cast<int64_t>(1)));
}

TEST(ConcatCols, TwoTensors)
{
    Tensor a({2, 2}), b({2, 3});
    a.fill(1.0f);
    b.fill(2.0f);
    Tensor c = concatCols({&a, &b});
    EXPECT_EQ(c.shape(), (Shape{2, 5}));
    EXPECT_EQ(c.at(0, 0), 1.0f);
    EXPECT_EQ(c.at(0, 1), 1.0f);
    EXPECT_EQ(c.at(0, 2), 2.0f);
    EXPECT_EQ(c.at(1, 4), 2.0f);
}

TEST(ConcatCols, PreservesOrderWithinRows)
{
    Tensor a({1, 2}), b({1, 1});
    a.at(0, 0) = 1.0f;
    a.at(0, 1) = 2.0f;
    b.at(0, 0) = 3.0f;
    Tensor c = concatCols({&a, &b});
    EXPECT_EQ(c.at(0, 0), 1.0f);
    EXPECT_EQ(c.at(0, 1), 2.0f);
    EXPECT_EQ(c.at(0, 2), 3.0f);
}

TEST(ConcatCols, SingleInputCopies)
{
    Tensor a({3, 2});
    a.fill(4.0f);
    Tensor c = concatCols({&a});
    EXPECT_TRUE(c.allClose(a));
}

TEST(ConcatCols, ManyInputs)
{
    std::vector<Tensor> parts;
    std::vector<const Tensor *> ptrs;
    for (int i = 0; i < 10; ++i) {
        parts.emplace_back(Shape{4, 3});
        parts.back().fill(static_cast<float>(i));
    }
    for (const Tensor &t : parts)
        ptrs.push_back(&t);
    Tensor c = concatCols(ptrs);
    EXPECT_EQ(c.shape(), (Shape{4, 30}));
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(c.at(2, i * 3 + 1), static_cast<float>(i));
}

TEST(ConcatCols, ErrorsOnMismatch)
{
    Tensor a({2, 2}), b({3, 2});
    EXPECT_THROW(concatCols({&a, &b}), PanicError);
    EXPECT_THROW(concatCols({}), PanicError);
    Tensor c({4});
    EXPECT_THROW(concatCols({&c}), PanicError);
}

TEST(ElementwiseCost, ClosedForm)
{
    OpCost c = elementwiseCost(100);
    EXPECT_DOUBLE_EQ(c.flops, 100.0);
    EXPECT_DOUBLE_EQ(c.bytesRead, 400.0);
    EXPECT_DOUBLE_EQ(c.bytesWritten, 400.0);
}

TEST(ConcatCost, NoFlops)
{
    OpCost c = concatCost(64);
    EXPECT_DOUBLE_EQ(c.flops, 0.0);
    EXPECT_DOUBLE_EQ(c.bytesRead, 256.0);
    EXPECT_DOUBLE_EQ(c.intensity(), 0.0);
}

TEST(OpCost, Accumulation)
{
    OpCost a{1.0, 2.0, 3.0};
    OpCost b{10.0, 20.0, 30.0};
    a += b;
    EXPECT_DOUBLE_EQ(a.flops, 11.0);
    EXPECT_DOUBLE_EQ(a.bytesRead, 22.0);
    EXPECT_DOUBLE_EQ(a.bytesWritten, 33.0);
}

TEST(OpKind, Names)
{
    EXPECT_STREQ(opKindName(OpKind::FC), "FC");
    EXPECT_STREQ(opKindName(OpKind::SLS), "SLS");
    EXPECT_STREQ(opKindName(OpKind::Concat), "Concat");
    EXPECT_STREQ(opKindName(OpKind::Recurrent), "Recurrent");
}

} // namespace
} // namespace recperf

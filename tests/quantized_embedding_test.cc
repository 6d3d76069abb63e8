/**
 * @file
 * Tests for row-wise int8 quantized embedding tables and the embedding
 * precision knob in the model config / timing layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/logging.hh"
#include "core/rng.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "ops/quantized_embedding.hh"
#include "timing/model_timer.hh"

namespace recperf {
namespace {

/** Bound on every row's quantization step: no row spans more than the
 *  whole table's value range, cut into 255 steps. */
float
stepBound(const EmbeddingTable &table)
{
    const float *data = table.table().data();
    auto [lo, hi] = std::minmax_element(data, data + table.table().size());
    return (*hi - *lo) / 255.0f;
}

TEST(QuantizedEmbedding, StorageShrinksNearly4x)
{
    Rng rng(1);
    EmbeddingTable table(1000, 32, rng);
    QuantizedEmbeddingTable q(table);
    EXPECT_EQ(q.rowBytes(), 32 + 8);
    EXPECT_EQ(q.storageBytes(), 1000 * 40);
    double ratio = static_cast<double>(table.storageBytes()) /
        static_cast<double>(q.storageBytes());
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 4.0);
}

TEST(QuantizedEmbedding, DequantizeWithinOneStep)
{
    Rng rng(2);
    EmbeddingTable table(200, 16, rng);
    QuantizedEmbeddingTable q(table);
    float step = stepBound(table);
    for (int64_t r = 0; r < 200; ++r) {
        // A one-ID lookup returns the dequantized row.
        Tensor row = q.forward({r}, {1});
        for (int64_t c = 0; c < 16; ++c) {
            EXPECT_NEAR(row.at(0, c), table.table().at(r, c), step * 0.51f)
                << "row " << r << " col " << c;
        }
    }
}

TEST(QuantizedEmbedding, ConstantRowExact)
{
    EmbeddingTable table(4, 8);
    table.table().fill(3.25f);
    QuantizedEmbeddingTable q(table);
    Tensor row = q.forward({2}, {1});
    for (int64_t c = 0; c < 8; ++c)
        EXPECT_FLOAT_EQ(row.at(0, c), 3.25f);
}

TEST(QuantizedEmbedding, ForwardApproximatesFp32)
{
    Rng rng(3);
    EmbeddingTable table(500, 32, rng);
    QuantizedEmbeddingTable q(table);

    std::vector<int64_t> ids, lengths;
    for (int b = 0; b < 8; ++b) {
        lengths.push_back(10);
        for (int j = 0; j < 10; ++j)
            ids.push_back(rng.nextInt(0, 499));
    }
    Tensor exact = table.forward(ids, lengths);
    Tensor approx = q.forward(ids, lengths);
    ASSERT_EQ(exact.shape(), approx.shape());
    // Pooled error grows at most linearly with pooling factor.
    float bound = stepBound(table) * 0.51f * 10;
    for (int64_t i = 0; i < exact.size(); ++i)
        EXPECT_NEAR(approx.at(i), exact.at(i), bound);
}

TEST(QuantizedEmbedding, MeanReduction)
{
    Rng rng(4);
    EmbeddingTable table(100, 8, rng);
    QuantizedEmbeddingTable q(table);
    Tensor sum = q.forward({1, 2, 3}, {3});
    Tensor mean = q.forward({1, 2, 3}, {3}, SlsReduction::Mean);
    for (int64_t c = 0; c < 8; ++c)
        EXPECT_NEAR(mean.at(0, c), sum.at(0, c) / 3.0f, 1e-5f);
}

TEST(QuantizedEmbedding, ValidatesInputs)
{
    Rng rng(5);
    EmbeddingTable table(10, 4, rng);
    QuantizedEmbeddingTable q(table);
    EXPECT_THROW(q.forward({0, 1}, {3}), PanicError);
}

TEST(EmbPrecision, RowBytes)
{
    EmbeddingConfig e{4, 1000, 32, 80, EmbPrecision::Fp32};
    EXPECT_EQ(e.rowBytes(), 128);
    e.precision = EmbPrecision::Fp16;
    EXPECT_EQ(e.rowBytes(), 64);
    e.precision = EmbPrecision::Int8;
    EXPECT_EQ(e.rowBytes(), 40);
    EXPECT_STREQ(embPrecisionName(EmbPrecision::Int8), "int8");
}

TEST(EmbPrecision, StorageScalesWithPrecision)
{
    ModelConfig fp32 = rmc2Small();
    ModelConfig int8 = rmc2Small();
    int8.emb.precision = EmbPrecision::Int8;
    double ratio = static_cast<double>(fp32.embStorageBytes()) /
        static_cast<double>(int8.embStorageBytes());
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 4.0);
}

TEST(EmbPrecision, QuantizationSpeedsUpSls)
{
    // Fewer lines per gathered row -> faster SparseLengthsSum on the
    // memory-intensive model (the §VIII compression motivation).
    MachineSpec bdw = broadwell();
    TimerOptions opts;
    opts.batch = 16;

    ModelConfig fp32 = rmc2Small();
    ModelConfig int8 = rmc2Small();
    int8.emb.precision = EmbPrecision::Int8;

    ModelTimer t32(bdw, fp32, opts);
    ModelTimer t8(bdw, int8, opts);
    double s32 = t32.steadyState(12, 12).secondsByKind(OpKind::SLS);
    double s8 = t8.steadyState(12, 12).secondsByKind(OpKind::SLS);
    EXPECT_LT(s8, 0.85 * s32);
}

} // namespace
} // namespace recperf

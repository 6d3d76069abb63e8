/**
 * @file
 * Tests for the DLRM-style dot-product feature interaction, in both
 * the functional model and the timing layer.
 */

#include <gtest/gtest.h>

#include "core/logging.hh"
#include "core/rng.hh"
#include "machine/machine_spec.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "ops/batch_matmul.hh"
#include "ops/elementwise.hh"
#include "ops/reference.hh"
#include "timing/model_timer.hh"

namespace recperf {
namespace {

ModelConfig
tinyDot()
{
    ModelConfig m;
    m.name = "tiny-dot";
    m.modelClass = ModelClass::Other;
    m.denseFeatures = 8;
    m.bottomMlp = {16, 4};
    m.emb = {3, 64, 4, 5}; // embDim matches bottomOutDim = 4
    m.interaction = InteractionKind::Dot;
    m.topMlp = {8, 1};
    m.validate();
    return m;
}

TEST(Interaction, TopInputDimForDot)
{
    ModelConfig m = tinyDot();
    // 4 features (3 tables + bottom) -> 6 pairs, plus bottom width 4.
    EXPECT_EQ(m.featureCount(), 4);
    EXPECT_EQ(m.topInputDim(), 6 + 4);
}

TEST(Interaction, ValidateRejectsDimMismatch)
{
    ModelConfig m = tinyDot();
    m.emb.embDim = 8; // != bottomOutDim 4
    EXPECT_THROW(m.validate(), PanicError);
}

TEST(Interaction, ValidateRejectsDotWithoutTables)
{
    ModelConfig m = tinyDot();
    m.emb.numTables = 0;
    EXPECT_THROW(m.validate(), PanicError);
}

TEST(Interaction, ForwardShapeAndRange)
{
    Rng rng(1);
    RecModel model(tinyDot(), rng);
    ModelInput input = model.randomInput(5, rng);
    Tensor ctr = model.forward(input);
    EXPECT_EQ(ctr.shape(), (Shape{5, 1}));
    for (int64_t i = 0; i < ctr.size(); ++i) {
        EXPECT_GT(ctr.at(i), 0.0f);
        EXPECT_LT(ctr.at(i), 1.0f);
    }
}

TEST(Interaction, ForwardMatchesManualComposition)
{
    ModelConfig cfg = tinyDot();
    Rng rng(3);
    RecModel model(cfg, rng);
    Rng in_rng(5);
    ModelInput input = model.randomInput(2, in_rng);

    // Bottom MLP.
    Tensor z = input.dense.reshaped(input.dense.shape());
    for (const FullyConnected &fc : model.bottomLayers()) {
        z = reference::fullyConnected(z, fc.weight(), fc.bias());
        reluInplace(z);
    }

    // Pooled embeddings and stacked features [batch, f, d].
    std::vector<Tensor> pooled;
    for (size_t t = 0; t < model.tables().size(); ++t) {
        pooled.push_back(reference::sparseLengthsSum(
            model.tables()[t].table(), input.sparse[t].ids,
            input.sparse[t].lengths));
    }
    std::vector<const Tensor *> feats = {&z};
    for (const Tensor &p : pooled)
        feats.push_back(&p);
    Tensor stacked = concatCols(feats).reshaped(
        {2, cfg.featureCount(), cfg.emb.embDim});
    Tensor pairs = dotInteraction(stacked);
    Tensor joined = concatCols({&pairs, &z});

    const auto &top = model.topLayers();
    for (size_t i = 0; i < top.size(); ++i) {
        joined = reference::fullyConnected(joined, top[i].weight(),
                                           top[i].bias());
        if (i + 1 < top.size())
            reluInplace(joined);
    }
    Tensor want = sigmoid(joined);
    EXPECT_TRUE(model.forward(input).allClose(want, 1e-4f));
}

TEST(Interaction, DotChangesPredictionsVsConcat)
{
    ModelConfig dot_cfg = tinyDot();
    ModelConfig cat_cfg = tinyDot();
    cat_cfg.interaction = InteractionKind::Concat;
    // Different topInputDim, so different architecture entirely.
    EXPECT_NE(dot_cfg.topInputDim(), cat_cfg.topInputDim());
}

TEST(Interaction, InferenceCostIncludesBatchMM)
{
    ModelConfig dot_cfg = rmc3Dot();
    OpCost c = dot_cfg.inferenceCost(4);
    EXPECT_GT(c.flops, 0.0);
    // Dot flops exceed the equivalent concat model's (extra pairwise
    // products).
    ModelConfig cat_cfg = dot_cfg;
    cat_cfg.interaction = InteractionKind::Concat;
    // Note: topInputDim differs, so compare only the interaction term
    // indirectly through total flops ordering at equal MLPs is unfair;
    // instead check the dot model costs more than its own MLPs alone.
    EXPECT_GT(c.flops, cat_cfg.inferenceCost(4).flops * 0.5);
}

TEST(Interaction, TimerEmitsBatchMMForDot)
{
    TimerOptions opts;
    opts.batch = 16;
    ModelTimer timer(broadwell(), rmc3Dot(), opts);
    ModelTiming t = timer.steadyState(10, 10);
    EXPECT_GT(t.secondsByKind(OpKind::BatchMM), 0.0);
    EXPECT_EQ(t.secondsByKind(OpKind::Concat), 0.0);
    // Paper: >96% of RMC3 time in BatchMatMul or FC.
    double share = t.fractionByKind(OpKind::FC) +
        t.fractionByKind(OpKind::BatchMM);
    EXPECT_GT(share, 0.90);
}

TEST(Interaction, TimerEmitsConcatForConcat)
{
    TimerOptions opts;
    opts.batch = 16;
    ModelTimer timer(broadwell(), rmc3Small(), opts);
    ModelTiming t = timer.steadyState(5, 5);
    EXPECT_EQ(t.secondsByKind(OpKind::BatchMM), 0.0);
    EXPECT_GT(t.secondsByKind(OpKind::Concat), 0.0);
}

TEST(Interaction, Rmc3DotLatencyComparableToRmc3)
{
    TimerOptions opts;
    opts.batch = 16;
    ModelTimer dot_timer(broadwell(), rmc3Dot(), opts);
    ModelTimer cat_timer(broadwell(), rmc3Small(), opts);
    double dot = dot_timer.steadyState(8, 8).totalSeconds();
    double cat = cat_timer.steadyState(8, 8).totalSeconds();
    EXPECT_GT(dot, 0.5 * cat);
    EXPECT_LT(dot, 3.0 * cat);
}

TEST(Interaction, FunctionalDotAtZooScale)
{
    Rng rng(9);
    RecModel model(rmc3Dot().functionalScale(256), rng);
    ModelInput input = model.randomInput(3, rng);
    Tensor ctr = model.forward(input);
    EXPECT_EQ(ctr.shape(), (Shape{3, 1}));
}

} // namespace
} // namespace recperf

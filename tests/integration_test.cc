/**
 * @file
 * Cross-module integration tests: functional execution, cost
 * accounting, and the timing model agree with each other and with the
 * paper's end-to-end claims.
 */

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "machine/machine_spec.hh"
#include "machine/simd.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "ops/kernel_cache.hh"
#include "serving/server.hh"
#include "timing/colocation.hh"
#include "timing/model_timer.hh"

namespace recperf {
namespace {

TEST(Integration, CostModelConsistentWithFunctionalModel)
{
    // ModelConfig::inferenceCost counts FC parameter bytes that match
    // the materialized model's actual parameter footprint.
    ModelConfig cfg = rmc1Small().functionalScale(256);
    Rng rng(1);
    RecModel model(cfg, rng);

    int64_t fc_params = 0;
    for (const FullyConnected &fc : model.bottomLayers())
        fc_params += fc.paramCount();
    for (const FullyConnected &fc : model.topLayers())
        fc_params += fc.paramCount();
    EXPECT_EQ(fc_params, cfg.fcParamCount());

    int64_t emb_params = 0;
    for (const EmbeddingTable &t : model.tables())
        emb_params += t.paramCount();
    EXPECT_EQ(emb_params, cfg.emb.totalRows() * cfg.emb.embDim);
}

TEST(Integration, EndToEndPipelineRuns)
{
    // Filtering (RMC1) -> ranking (RMC3), the Fig 6 hierarchy, at
    // functional scale: outputs stay valid probabilities throughout.
    Rng rng(2);
    RecModel filter(rmc1Small().functionalScale(512), rng);
    RecModel ranker(rmc3Small().functionalScale(512), rng);

    const int64_t candidates = 16;
    ModelInput stage1 = filter.randomInput(candidates, rng);
    Tensor scores = filter.forward(stage1);

    // Keep the top half, re-rank with the heavy model.
    std::vector<std::pair<float, int64_t>> ranked;
    for (int64_t i = 0; i < candidates; ++i)
        ranked.emplace_back(scores.at(i, 0), i);
    std::sort(ranked.rbegin(), ranked.rend());

    ModelInput stage2 = ranker.randomInput(candidates / 2, rng);
    Tensor final_scores = ranker.forward(stage2);
    EXPECT_EQ(final_scores.dim(0), candidates / 2);
    for (int64_t i = 0; i < final_scores.size(); ++i) {
        EXPECT_GT(final_scores.at(i), 0.0f);
        EXPECT_LT(final_scores.at(i), 1.0f);
    }
}

TEST(Integration, Fig2QuadrantsHold)
{
    // FLOPs/bytes landscape: NCF is small on both axes; RMC2 is
    // byte-heavy but FLOP-light; RMC3 is FLOP-heavy.
    OpCost ncf = ncfConfig().inferenceCost(1);
    OpCost rmc1 = rmc1Small().inferenceCost(1);
    OpCost rmc2 = rmc2Small().inferenceCost(1);
    OpCost rmc3 = rmc3Small().inferenceCost(1);

    EXPECT_LT(ncf.flops, rmc3.flops / 10);
    EXPECT_GT(rmc2.bytesRead, rmc1.bytesRead);
    EXPECT_GT(rmc3.flops, rmc1.flops);
    EXPECT_GT(rmc3.flops, rmc2.flops);
}

TEST(Integration, LatencyBoundedThroughputPrefersBatchingOnSkylake)
{
    // §V Takeaway 4: under a latency budget, Skylake sustains larger
    // batches; its throughput at batch 128 beats its batch-16
    // throughput (items/s).
    MachineSpec skl = skylake();
    auto items_per_sec = [&](int64_t batch) {
        TimerOptions opts;
        opts.batch = batch;
        ModelTimer timer(skl, rmc1Small(), opts);
        double lat = timer.steadyState(10, 10).totalSeconds();
        return static_cast<double>(batch) / lat;
    };
    EXPECT_GT(items_per_sec(128), items_per_sec(16));
}

TEST(Integration, ColocationThroughputLatencyTradeoffExists)
{
    // Fig 10: co-location raises throughput while degrading latency —
    // both directions must be visible in the same experiment.
    MachineSpec bdw = broadwell();
    TimerOptions opts;
    opts.batch = 32;
    ColocationSim solo(bdw, rmc2Small(), opts, 1);
    ColocationSim packed(bdw, rmc2Small(), opts, 8);
    ColocationResult r1 = solo.run(10, 6);
    ColocationResult r8 = packed.run(10, 6);

    EXPECT_GT(r8.throughput(), r1.throughput());
    EXPECT_GT(r8.meanLatency(), r1.meanLatency());
}

TEST(Integration, ServingUsesColocatedTimingModel)
{
    // A server with 8 workers shows longer per-batch service times than
    // a single-worker server (shared-LLC contention propagates into
    // the serving layer).
    ServerOptions one;
    one.numWorkers = 1;
    one.maxBatch = 32;
    ServerOptions eight = one;
    eight.numWorkers = 8;

    Server a(broadwell(), rmc2Small(), TimerOptions{}, one);
    Server b(broadwell(), rmc2Small(), TimerOptions{}, eight);
    double solo = a.runClosedLoop(6).serviceTime.p(50);
    double packed = b.runClosedLoop(6).serviceTime.p(50);
    EXPECT_GT(packed, solo);
}

TEST(Integration, Fig11SmallFcProtectedBySkylakeL2)
{
    // The Fig 11 caption's mechanism: a standalone FC probe whose
    // ~800 KB of weights fit Skylake's 1 MB L2 but not Broadwell's
    // 256 KB L2, co-located with RMC1 inferences. Under co-location the
    // probe degrades on Broadwell (its weights are displaced from the
    // contended inclusive LLC) and stays nearly flat on Skylake.
    ModelConfig fc_probe;
    fc_probe.name = "fc-probe";
    fc_probe.modelClass = ModelClass::Other;
    fc_probe.denseFeatures = 448;
    fc_probe.bottomMlp = {448};
    fc_probe.topMlp = {64, 1};
    fc_probe.validate();

    auto fc_time = [&](const MachineSpec &m, uint32_t colocated) {
        std::vector<TenantSpec> tenants;
        TimerOptions probe_opts;
        probe_opts.batch = 1;
        tenants.push_back({fc_probe, probe_opts});
        for (uint32_t i = 0; i < colocated; ++i) {
            TimerOptions rmc_opts;
            rmc_opts.batch = 32;
            rmc_opts.seed = 77 + i;
            tenants.push_back({rmc1Large(), rmc_opts});
        }
        ColocationSim sim(m, tenants);
        ColocationResult r = sim.run(10, 6);
        return r.tenantAverages.front().secondsByKind(OpKind::FC);
    };

    double bdw_deg = fc_time(broadwell(), 11) / fc_time(broadwell(), 0);
    double skl_deg = fc_time(skylake(), 11) / fc_time(skylake(), 0);
    EXPECT_GT(bdw_deg, 1.15);
    EXPECT_LT(skl_deg, 1.10);
    EXPECT_LT(skl_deg, bdw_deg);
}

TEST(Integration, TraceLocalityChangesSlsTime)
{
    // Fig 14 -> memory-system implication: high-reuse traces make SLS
    // faster than near-random traces on the same model/machine.
    MachineSpec bdw = broadwell();
    TimerOptions local;
    local.batch = 16;
    local.repeatProb = 0.9;
    TimerOptions random;
    random.batch = 16;
    random.repeatProb = 0.0;
    random.zipfAlpha = 0.5;

    ModelTimer t_local(bdw, rmc2Small(), local);
    ModelTimer t_random(bdw, rmc2Small(), random);
    double s_local =
        t_local.steadyState(15, 10).secondsByKind(OpKind::SLS);
    double s_random =
        t_random.steadyState(15, 10).secondsByKind(OpKind::SLS);
    EXPECT_LT(s_local, 0.8 * s_random);
}

TEST(Integration, KernelCacheDumpReflectsModelForward)
{
    // The path `recperf eval --dump-kernel-cache` walks: a model
    // forward first-touches its GEMM/SLS shapes, and the dump then
    // names every one of them with a tuned variant. The FC stack's
    // batch and the embedding dim must both appear as cache keys.
    KernelCache &cache = KernelCache::global();
    cache.setPolicy(IsaPolicy{}); // clears to a cold cache
    ModelConfig cfg = rmc1Small().functionalScale(256);
    Rng rng(9);
    RecModel model(cfg, rng);
    const int64_t batch = 8;
    (void)model.forward(model.randomInput(batch, rng));

    EXPECT_GT(cache.tuneCount(), 0u);
    std::string dump = cache.dumpTable();
    EXPECT_NE(std::string::npos, dump.find("kernel cache:"));
    EXPECT_NE(std::string::npos, dump.find("gemm m8"));
    EXPECT_NE(std::string::npos,
              dump.find("d" + std::to_string(cfg.emb.embDim)));
    cache.setPolicy(IsaPolicy{});
}

} // namespace
} // namespace recperf

/**
 * @file
 * Tests for the discrete-event serving simulation (batching queue,
 * SLA-bounded throughput, open- vs closed-loop).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/logging.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "serving/server.hh"

namespace recperf {
namespace {

ServerOptions
baseOptions()
{
    ServerOptions o;
    o.numWorkers = 2;
    o.maxBatch = 16;
    o.slaSeconds = 0.450;
    o.jitterSigma = 0.05;
    return o;
}

TEST(Server, ClosedLoopProducesThroughput)
{
    Server server(broadwell(), rmc1Small(), TimerOptions{}, baseOptions());
    ServingStats stats = server.runClosedLoop(10);
    EXPECT_GT(stats.totalThroughput(), 0.0);
    EXPECT_EQ(stats.slaMet + stats.slaMissed,
              static_cast<uint64_t>(10 * 2 * 16));
    EXPECT_GT(stats.duration, 0.0);
}

TEST(Server, GoodThroughputNeverExceedsTotal)
{
    Server server(broadwell(), rmc2Small(), TimerOptions{}, baseOptions());
    ServingStats stats = server.runClosedLoop(6);
    EXPECT_LE(stats.goodThroughput(), stats.totalThroughput() + 1e-9);
    EXPECT_GE(stats.slaFraction(), 0.0);
    EXPECT_LE(stats.slaFraction(), 1.0);
}

TEST(Server, OpenLoopLowRateLatencyNearService)
{
    // At a trickle arrival rate there is no queueing: item latency is
    // close to single-item service time.
    ServerOptions opts = baseOptions();
    opts.numWorkers = 2;
    Server server(broadwell(), rmc1Small(), TimerOptions{}, opts);
    ServingStats stats = server.runOpenLoop(/*items_per_second=*/50.0,
                                            /*num_items=*/200);
    ASSERT_GT(stats.itemLatency.count(), 0u);
    // Batch-1 service on RMC1 is ~40 us; with no queueing p50 stays
    // well below a millisecond.
    EXPECT_LT(stats.itemLatency.p(50), 1e-3);
    EXPECT_NEAR(stats.slaFraction(), 1.0, 1e-9);
}

TEST(Server, OpenLoopOverloadMissesSla)
{
    // Arrivals far beyond capacity drive queueing delay past any SLA.
    ServerOptions opts = baseOptions();
    opts.numWorkers = 1;
    opts.maxBatch = 4;
    opts.slaSeconds = 0.005;
    Server server(broadwell(), rmc2Small(), TimerOptions{}, opts);
    ServingStats stats = server.runOpenLoop(/*items_per_second=*/50'000.0,
                                            /*num_items=*/2'000);
    EXPECT_GT(stats.slaMissed, 0u);
    EXPECT_LT(stats.slaFraction(), 0.5);
}

TEST(Server, LoadGrowsBatches)
{
    // Under heavy load the dynamic batcher forms larger batches, so the
    // mean service time exceeds the light-load service time.
    ServerOptions opts = baseOptions();
    opts.numWorkers = 1;
    opts.maxBatch = 32;
    Server light(broadwell(), rmc1Small(), TimerOptions{}, opts);
    ServingStats idle = light.runOpenLoop(20.0, 150);
    Server heavy(broadwell(), rmc1Small(), TimerOptions{}, opts);
    ServingStats busy = heavy.runOpenLoop(100'000.0, 1'500);
    EXPECT_GT(busy.serviceTime.p(50), idle.serviceTime.p(50));
}

TEST(Server, TailAboveMedian)
{
    Server server(broadwell(), rmc1Small(), TimerOptions{}, baseOptions());
    ServingStats stats = server.runOpenLoop(5'000.0, 1'000);
    ASSERT_GT(stats.itemLatency.count(), 100u);
    EXPECT_GE(stats.itemLatency.p(99), stats.itemLatency.p(50));
    EXPECT_GE(stats.itemLatency.p(50), stats.itemLatency.p(5));
}

TEST(Server, TailLatencyRegression)
{
    // Tail-latency regression guard: percentiles must stay ordered and
    // the SLA-miss fraction must grow monotonically as the arrival
    // rate passes saturation (§VI-A / Fig 10-11 behaviour).
    ServerOptions opts = baseOptions();
    opts.numWorkers = 1;
    opts.maxBatch = 8;
    opts.slaSeconds = 0.005;

    double prev_missed = -1.0;
    for (double rate : {500.0, 20'000.0, 200'000.0}) {
        Server server(broadwell(), rmc1Small(), TimerOptions{}, opts);
        ServingStats stats = server.runOpenLoop(rate, 1'500);
        ASSERT_GT(stats.itemLatency.count(), 0u);

        // Percentile ordering (p99 >= p50 >= p5) at every load level.
        EXPECT_GE(stats.itemLatency.p(99), stats.itemLatency.p(50));
        EXPECT_GE(stats.itemLatency.p(50), stats.itemLatency.p(5));

        double missed = static_cast<double>(stats.slaMissed) /
            static_cast<double>(stats.completedItems());
        EXPECT_GE(missed, prev_missed);
        prev_missed = missed;
    }
    // Past saturation, most items miss the SLA.
    EXPECT_GT(prev_missed, 0.5);
}

TEST(Server, JitterWidensServiceDistribution)
{
    ServerOptions no_jitter = baseOptions();
    no_jitter.jitterSigma = 0.0;
    no_jitter.numWorkers = 1;
    Server a(broadwell(), rmc1Small(), TimerOptions{}, no_jitter);
    ServingStats sa = a.runClosedLoop(30);

    ServerOptions jitter = no_jitter;
    jitter.jitterSigma = 0.25;
    Server b(broadwell(), rmc1Small(), TimerOptions{}, jitter);
    ServingStats sb = b.runClosedLoop(30);

    double spread_a = sa.serviceTime.p(99) / sa.serviceTime.p(5);
    double spread_b = sb.serviceTime.p(99) / sb.serviceTime.p(5);
    EXPECT_GT(spread_b, spread_a);
}

TEST(Server, MoreWorkersMoreThroughput)
{
    ServerOptions one = baseOptions();
    one.numWorkers = 1;
    Server a(broadwell(), rmc1Small(), TimerOptions{}, one);
    double t1 = a.runClosedLoop(12).totalThroughput();

    ServerOptions four = baseOptions();
    four.numWorkers = 4;
    Server b(broadwell(), rmc1Small(), TimerOptions{}, four);
    double t4 = b.runClosedLoop(12).totalThroughput();
    EXPECT_GT(t4, 2.0 * t1);
}

TEST(Server, FcTimesRecorded)
{
    Server server(broadwell(), rmc3Small(), TimerOptions{}, baseOptions());
    ServingStats stats = server.runClosedLoop(5);
    ASSERT_GT(stats.fcTime.count(), 0u);
    // RMC3 service time is FC-dominated.
    EXPECT_GT(stats.fcTime.p(50), 0.8 * stats.serviceTime.p(50));
}

TEST(Server, ValidatesOptions)
{
    ServerOptions bad = baseOptions();
    bad.numWorkers = 0;
    EXPECT_THROW(Server(broadwell(), rmc1Small(), TimerOptions{}, bad),
                 PanicError);
    bad = baseOptions();
    bad.maxBatch = 0;
    EXPECT_THROW(Server(broadwell(), rmc1Small(), TimerOptions{}, bad),
                 PanicError);
}

TEST(Server, OptionsValidateGathersEveryCheck)
{
    // One validator per struct: the CLI reports what the constructor
    // would assert.
    EXPECT_EQ(baseOptions().validate(), "");
    std::vector<ServerOptions> bad(6, baseOptions());
    bad[0].slaSeconds = 0.0;
    bad[1].healthyReplicas = 2; // of the default single replica
    bad[2].admission.enabled = true;
    bad[2].admission.maxWaitFraction = 1.5;
    bad[3].degrade.enabled = true;
    bad[3].degrade.backlogFactor = 0.0;
    bad[4].faults.stragglerProb = 2.0;
    bad[5].brownout.enabled = true;
    bad[5].brownout.exitFraction = 2.0;
    for (const ServerOptions &opts : bad) {
        EXPECT_NE(opts.validate(), "");
        EXPECT_THROW(Server(broadwell(), rmc1Small(), TimerOptions{}, opts),
                     PanicError);
    }
}

TEST(Server, RejectsDegenerateRuns)
{
    Server server(broadwell(), rmc1Small(), TimerOptions{}, baseOptions());
    EXPECT_THROW(server.runOpenLoop(0.0, 10), PanicError);
    EXPECT_THROW(server.runOpenLoop(10.0, 0), PanicError);
    EXPECT_THROW(server.runClosedLoop(0), PanicError);
}

} // namespace
} // namespace recperf

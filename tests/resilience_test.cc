/**
 * @file
 * Tests for the resilience subsystem: deterministic fault injection,
 * timeout/retry/hedging in sharded inference, and SLA-aware admission
 * control in the server.
 */

#include <gtest/gtest.h>

#include "core/logging.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "resilience/fault_injector.hh"
#include "resilience/policies.hh"
#include "resilience/replica_set.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"

namespace recperf {
namespace {

FaultOptions
stragglerFaults(double prob)
{
    FaultOptions f;
    f.stragglerProb = prob;
    f.stragglerAlpha = 1.5;
    f.stragglerMin = 4.0;
    f.seed = 7;
    return f;
}

/** A shard that dies almost immediately and never recovers. */
FaultOptions
deadShardFaults()
{
    FaultOptions f;
    f.shardMtbfSeconds = 1e-9;
    f.shardMttrSeconds = 1e9;
    f.seed = 7;
    return f;
}

RunResult
runSharded(const FaultOptions &faults, const RetryPolicy &retry,
           const HedgePolicy &hedge, int measure = 120)
{
    TimerOptions opts;
    opts.batch = 16;
    ShardedInference sim(broadwell(), rmc1Small(), 4, NetworkConfig{},
                         opts);
    RunOptions options;
    options.warmupIters = 20;
    options.measureIters = measure;
    options.faults = faults;
    options.retry = retry;
    options.hedge = hedge;
    return sim.run(options);
}

TEST(FaultInjector, DeterministicFromSeed)
{
    FaultOptions f = stragglerFaults(0.3);
    f.shardMtbfSeconds = 0.002;
    f.shardMttrSeconds = 0.001;
    FaultInjector a(f, 4);
    FaultInjector b(f, 4);
    for (int i = 0; i < 500; ++i) {
        double now = 1e-5 * i;
        EXPECT_EQ(a.serviceMultiplier(now), b.serviceMultiplier(now));
        EXPECT_EQ(a.shardUp(i % 4, now), b.shardUp(i % 4, now));
    }
    EXPECT_EQ(a.stragglersInjected(), b.stragglersInjected());
    EXPECT_EQ(a.downAnswers(), b.downAnswers());
}

TEST(FaultInjector, SeedChangesSchedule)
{
    FaultOptions f = stragglerFaults(0.3);
    FaultOptions g = f;
    g.seed = f.seed + 1;
    FaultInjector a(f, 0);
    FaultInjector b(g, 0);
    int diffs = 0;
    for (int i = 0; i < 200; ++i) {
        if (a.serviceMultiplier(0.0) != b.serviceMultiplier(0.0))
            ++diffs;
    }
    EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, ParetoStragglersBoundedBelow)
{
    FaultOptions f = stragglerFaults(1.0);
    FaultInjector inj(f, 0);
    for (int i = 0; i < 200; ++i)
        EXPECT_GE(inj.serviceMultiplier(0.0), f.stragglerMin);
    EXPECT_EQ(inj.stragglersInjected(), 200u);

    FaultInjector clean(stragglerFaults(0.0), 0);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(clean.serviceMultiplier(0.0), 1.0);
}

TEST(FaultInjector, ShardFailureProcess)
{
    FaultOptions f;
    f.shardMtbfSeconds = 0.001;
    f.shardMttrSeconds = 0.001;
    f.seed = 11;
    FaultInjector inj(f, 2);
    int down = 0;
    for (int i = 0; i < 2000; ++i) {
        if (!inj.shardUp(0, 1e-5 * i))
            ++down;
    }
    // With MTBF == MTTR the shard is down roughly half the time.
    EXPECT_GT(down, 200);
    EXPECT_LT(down, 1800);

    FaultOptions never;
    FaultInjector up(never, 2);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(up.shardUp(1, 1e-3 * i));
}

TEST(FaultInjector, LoadSpikesInflateService)
{
    FaultOptions f;
    f.spikeRatePerSec = 200.0;
    f.spikeDurationSeconds = 0.002;
    f.spikeFactor = 3.0;
    f.seed = 5;
    FaultInjector inj(f, 0);
    int inflated = 0;
    for (int i = 0; i < 2000; ++i) {
        if (inj.serviceMultiplier(1e-5 * i) > 1.0)
            ++inflated;
    }
    EXPECT_GT(inj.spikesStarted(), 0u);
    EXPECT_GT(inflated, 0);
    EXPECT_LT(inflated, 2000);
}

TEST(Resilient, DeterministicFromSeed)
{
    FaultOptions f = stragglerFaults(0.2);
    f.shardMtbfSeconds = 0.01;
    f.shardMttrSeconds = 0.002;
    RetryPolicy retry;
    retry.timeoutSeconds = 0.002;
    HedgePolicy hedge;
    hedge.enabled = true;

    RunResult a = runSharded(f, retry, hedge, 60);
    RunResult b = runSharded(f, retry, hedge, 60);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.hedgesIssued, b.hedgesIssued);
    EXPECT_EQ(a.hedgeWins, b.hedgeWins);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_DOUBLE_EQ(a.latency.p(99), b.latency.p(99));
    EXPECT_DOUBLE_EQ(a.duration, b.duration);
}

TEST(Resilient, CleanRunCompletesEverything)
{
    RunResult r =
        runSharded(FaultOptions{}, RetryPolicy{}, HedgePolicy{}, 40);
    EXPECT_EQ(r.completed, 40u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.hedgesIssued, 0u);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_DOUBLE_EQ(r.availability(), 1.0);
    EXPECT_GT(r.goodput(), 0.0);
    EXPECT_EQ(r.latency.count(), 40u);
}

TEST(Resilient, HedgingImprovesTailUnderStragglers)
{
    FaultOptions f = stragglerFaults(0.25);
    RetryPolicy retry; // no timeout: stragglers are waited out
    HedgePolicy off;
    HedgePolicy on;
    on.enabled = true; // auto p95 delay

    RunResult r_off = runSharded(f, retry, off);
    RunResult r_on = runSharded(f, retry, on);
    ASSERT_EQ(r_off.completed, r_on.completed);
    EXPECT_GT(r_on.hedgesIssued, 0u);
    EXPECT_GT(r_on.hedgeWins, 0u);
    EXPECT_LT(r_on.latency.p(99), r_off.latency.p(99));
    // Hedging pays with duplicated work, which is accounted.
    EXPECT_GT(r_on.hedgeExtraSeconds, 0.0);
    EXPECT_GT(r_on.hedgeExtraBytes, 0.0);
}

TEST(Resilient, RetryExhaustionFailsInsteadOfHanging)
{
    RetryPolicy retry;
    retry.maxRetries = 2;
    RunResult r =
        runSharded(deadShardFaults(), retry, HedgePolicy{}, 50);
    // The shards die within nanoseconds of t=0, so only the very first
    // inference (issued exactly at t=0) completes; every later one
    // fail-fasts, retries, and exhausts on all four dead shards.
    EXPECT_EQ(r.failed, 49u);
    EXPECT_EQ(r.completed, 1u);
    EXPECT_EQ(r.latency.count(), 1u);
    EXPECT_EQ(r.retries, 49u * 4u * 2u);
    EXPECT_GT(r.shardDownEncounters, 0u);
    EXPECT_LT(r.availability(), 0.05);
    // Failed attempts cost bounded time, not an unbounded hang.
    EXPECT_GT(r.wastedSeconds, 0.0);
    EXPECT_LT(r.duration, 1.0);
}

TEST(Resilient, HedgeRescuesDownShard)
{
    RetryPolicy retry;
    retry.maxRetries = 1;
    HedgePolicy hedge;
    hedge.enabled = true;
    RunResult r =
        runSharded(deadShardFaults(), retry, hedge, 50);
    EXPECT_EQ(r.completed, 50u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.hedgeWins, 0u);
    EXPECT_DOUBLE_EQ(r.availability(), 1.0);
}

TEST(Resilient, TimeoutsAreCountedAndRetried)
{
    // Every attempt straggles by >= 100x; a tight timeout abandons each
    // attempt, so every inference exhausts its retries.
    FaultOptions f = stragglerFaults(1.0);
    f.stragglerMin = 100.0;
    RetryPolicy retry;
    retry.timeoutSeconds = 20e-6; // far below 8x the base SLS time
    retry.maxRetries = 1;
    RunResult r = runSharded(f, retry, HedgePolicy{}, 30);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.failed, 30u);
    EXPECT_GT(r.timeouts, 0u);
    EXPECT_GT(r.wastedSeconds, 0.0);
}

TEST(ServingStats, ZeroItemRunsAreSafe)
{
    ServingStats empty;
    EXPECT_EQ(empty.goodThroughput(), 0.0);
    EXPECT_EQ(empty.totalThroughput(), 0.0);
    EXPECT_EQ(empty.slaFraction(), 0.0);
    EXPECT_EQ(empty.completedItems(), 0u);
    EXPECT_EQ(empty.offeredItems(), 0u);
    EXPECT_EQ(empty.itemLatency.p(50), 0.0);
    EXPECT_EQ(empty.itemLatency.p(99), 0.0);

    RunResult r;
    EXPECT_EQ(r.availability(), 0.0);
    EXPECT_EQ(r.goodput(), 0.0);
}

ServerOptions
overloadOptions()
{
    ServerOptions o;
    o.numWorkers = 1;
    o.maxBatch = 4;
    o.slaSeconds = 0.005;
    o.jitterSigma = 0.05;
    return o;
}

TEST(Admission, ShedsLoadAndProtectsSla)
{
    ServerOptions off = overloadOptions();
    Server base(broadwell(), rmc2Small(), TimerOptions{}, off);
    ServingStats without = base.runOpenLoop(50'000.0, 2'000);

    ServerOptions on = overloadOptions();
    on.admission.enabled = true;
    on.admission.maxWaitFraction = 0.5;
    Server guarded(broadwell(), rmc2Small(), TimerOptions{}, on);
    ServingStats with = guarded.runOpenLoop(50'000.0, 2'000);

    EXPECT_GT(with.shedItems, 0u);
    EXPECT_EQ(with.offeredItems(), 2'000u);
    // Shedding hopeless items keeps the served items under the SLA.
    EXPECT_GT(with.slaFraction(), without.slaFraction());
    EXPECT_GT(with.slaFraction(), 0.8);
    EXPECT_LT(with.completedItems(), with.offeredItems());
}

TEST(Admission, DeterministicShedCounts)
{
    ServerOptions on = overloadOptions();
    on.admission.enabled = true;
    Server a(broadwell(), rmc2Small(), TimerOptions{}, on);
    ServingStats sa = a.runOpenLoop(40'000.0, 1'500);
    Server b(broadwell(), rmc2Small(), TimerOptions{}, on);
    ServingStats sb = b.runOpenLoop(40'000.0, 1'500);
    EXPECT_EQ(sa.shedItems, sb.shedItems);
    EXPECT_EQ(sa.slaMet, sb.slaMet);
    EXPECT_EQ(sa.slaMissed, sb.slaMissed);
}

TEST(Admission, IdleTrafficIsUntouched)
{
    ServerOptions on = overloadOptions();
    on.admission.enabled = true;
    Server server(broadwell(), rmc1Small(), TimerOptions{}, on);
    ServingStats stats = server.runOpenLoop(50.0, 300);
    EXPECT_EQ(stats.shedItems, 0u);
    EXPECT_EQ(stats.completedItems(), 300u);
}

TEST(Degrade, DropsLowPriorityUnderBacklog)
{
    ServerOptions o = overloadOptions();
    o.maxBatch = 8;
    o.degrade.enabled = true;
    o.degrade.backlogFactor = 1.0;
    o.degrade.degradedMaxBatch = 2;
    o.degrade.lowPriorityFraction = 0.5;
    Server server(broadwell(), rmc2Small(), TimerOptions{}, o);
    ServingStats stats = server.runOpenLoop(50'000.0, 2'000);
    EXPECT_GT(stats.degradedBatches, 0u);
    EXPECT_GT(stats.droppedLowPriority, 0u);
    EXPECT_EQ(stats.offeredItems(), 2'000u);
}

TEST(Degrade, OffByDefault)
{
    Server server(broadwell(), rmc2Small(), TimerOptions{},
                  overloadOptions());
    ServingStats stats = server.runOpenLoop(50'000.0, 1'000);
    EXPECT_EQ(stats.degradedBatches, 0u);
    EXPECT_EQ(stats.droppedLowPriority, 0u);
    EXPECT_EQ(stats.shedItems, 0u);
}

TEST(Health, EwmaTracksLatencyAndErrorStreaks)
{
    HealthTracker h;
    EXPECT_DOUBLE_EQ(h.ewmaSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(h.score(5.0), 5.0); // no history: fallback

    h.recordSuccess(1e-3, 0.0);
    EXPECT_DOUBLE_EQ(h.ewmaSeconds(), 1e-3); // first sample seeds EWMA
    h.recordSuccess(2e-3, 1.0);
    // alpha 0.2: 0.2 * 2ms + 0.8 * 1ms
    EXPECT_NEAR(h.ewmaSeconds(), 1.2e-3, 1e-12);
    EXPECT_DOUBLE_EQ(h.score(5.0), h.ewmaSeconds());

    h.recordError(2.0);
    h.recordError(3.0);
    EXPECT_EQ(h.consecutiveErrors(), 2);
    EXPECT_EQ(h.errors(), 2u);
    h.recordSuccess(1e-3, 4.0);
    EXPECT_EQ(h.consecutiveErrors(), 0); // success resets the streak
    EXPECT_EQ(h.successes(), 3u);
    EXPECT_DOUBLE_EQ(h.lastEventTime(), 4.0);
}

TEST(Breaker, TripsCoolsAndRecloses)
{
    BreakerOptions o;
    o.errorThreshold = 2;
    o.openSeconds = 1.0;
    o.probeAdmitProb = 1.0; // every half-open request is a probe
    o.closeAfterProbes = 2;
    CircuitBreaker b(o, /*salt=*/0);

    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_TRUE(b.allowRequest(0.0));
    b.onFailure(0.0);
    EXPECT_EQ(b.state(), BreakerState::Closed); // one error: not yet
    b.onFailure(0.1);
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.timesOpened(), 1u);

    EXPECT_FALSE(b.allowRequest(0.5)); // cooldown running
    EXPECT_GT(b.rejections(), 0u);
    EXPECT_TRUE(b.allowRequest(1.2)); // cooldown over: probe admitted
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);
    b.onSuccess(1.2);
    EXPECT_EQ(b.state(), BreakerState::HalfOpen); // one probe of two
    EXPECT_TRUE(b.allowRequest(1.3));
    b.onSuccess(1.3);
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_EQ(b.timesClosed(), 1u);
    EXPECT_EQ(b.probesAdmitted(), 2u);
}

TEST(Breaker, FailedProbeReopens)
{
    BreakerOptions o;
    o.errorThreshold = 1;
    o.openSeconds = 1.0;
    o.probeAdmitProb = 1.0;
    CircuitBreaker b(o, 0);
    b.onFailure(0.0);
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_TRUE(b.allowRequest(1.5));
    b.onFailure(1.5); // probe fails: back to open, cooldown restarted
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.timesOpened(), 2u);
    EXPECT_FALSE(b.allowRequest(2.0));
    EXPECT_TRUE(b.allowRequest(2.6));
}

TEST(Breaker, ProbeCoinIsSeeded)
{
    BreakerOptions o;
    o.errorThreshold = 1;
    o.openSeconds = 0.1;
    o.probeAdmitProb = 0.5;
    auto admissions = [&o](uint64_t salt) {
        CircuitBreaker b(o, salt);
        b.onFailure(0.0);
        std::vector<bool> seq;
        for (int i = 0; i < 32; ++i) {
            bool admitted = b.allowRequest(0.2 + 0.01 * i);
            seq.push_back(admitted);
            if (admitted)
                b.onFailure(0.2 + 0.01 * i); // stay half-open/open
        }
        return seq;
    };
    EXPECT_EQ(admissions(3), admissions(3)); // same salt: same stream
    EXPECT_NE(admissions(3), admissions(4)); // salts decorrelate
}

TEST(Breaker, OptionValidation)
{
    BreakerOptions o;
    EXPECT_TRUE(o.validate().empty());
    o.errorThreshold = 0;
    EXPECT_FALSE(o.validate().empty());
    o = {};
    o.probeAdmitProb = 1.5;
    EXPECT_FALSE(o.validate().empty());
    o = {};
    o.openSeconds = -1.0;
    EXPECT_FALSE(o.validate().empty());
}

TEST(Router, PolicyNamesRoundTrip)
{
    RouterPolicy p;
    EXPECT_TRUE(routerPolicyFromName("primary-first", &p));
    EXPECT_EQ(p, RouterPolicy::PrimaryFirst);
    EXPECT_TRUE(routerPolicyFromName("least-loaded", &p));
    EXPECT_EQ(p, RouterPolicy::LeastLoaded);
    EXPECT_TRUE(routerPolicyFromName("p2c", &p));
    EXPECT_EQ(p, RouterPolicy::PowerOfTwo);
    EXPECT_FALSE(routerPolicyFromName("round-robin", &p));
}

TEST(Router, PrimaryFirstPrefersLowestAdmittedIndex)
{
    ReplicaOptions o;
    o.replicas = 3;
    ReplicaSet set(0, o, /*warmup_factor=*/2.0);
    ReplicaSet::Pick pick = set.route(0.0);
    EXPECT_EQ(pick.replica, 0);
    EXPECT_EQ(pick.alternate, 1);

    // Trip the primary's breaker: routing falls over to replica 1.
    for (int i = 0; i < o.breaker.errorThreshold; ++i)
        set.recordError(0, 0.0);
    pick = set.route(0.0);
    EXPECT_EQ(pick.replica, 1);
    EXPECT_EQ(pick.alternate, 2);
}

TEST(Router, LeastLoadedAvoidsTheBusyReplica)
{
    ReplicaOptions o;
    o.replicas = 2;
    o.router = RouterPolicy::LeastLoaded;
    ReplicaSet set(0, o, 2.0);
    // Pile virtual work onto replica 0.
    for (int i = 0; i < 8; ++i)
        set.recordSuccess(0, 5e-3, 0.0);
    ReplicaSet::Pick pick = set.route(0.0);
    EXPECT_EQ(pick.replica, 1);
    EXPECT_EQ(pick.alternate, 0);
}

TEST(Router, PowerOfTwoIsDeterministicAndAlwaysHasAlternate)
{
    ReplicaOptions o;
    o.replicas = 3;
    o.router = RouterPolicy::PowerOfTwo;
    o.seed = 99;
    ReplicaSet a(0, o, 2.0);
    ReplicaSet b(0, o, 2.0);
    for (int i = 0; i < 50; ++i) {
        ReplicaSet::Pick pa = a.route(1e-4 * i);
        ReplicaSet::Pick pb = b.route(1e-4 * i);
        EXPECT_EQ(pa.replica, pb.replica);
        EXPECT_EQ(pa.alternate, pb.alternate);
        ASSERT_GE(pa.replica, 0);
        ASSERT_GE(pa.alternate, 0);
        EXPECT_NE(pa.replica, pa.alternate);
    }
}

TEST(Router, WarmupMultiplierDecaysLinearly)
{
    ReplicaOptions o;
    o.replicas = 2;
    o.warmupSeconds = 1.0;
    ReplicaSet set(0, o, /*warmup_factor=*/3.0);
    EXPECT_DOUBLE_EQ(set.warmupMultiplier(0, 0.0), 1.0); // never down

    set.observeUp(0, false, 0.0);
    set.observeUp(0, true, 1.0); // down -> up edge starts warm-up
    EXPECT_DOUBLE_EQ(set.warmupMultiplier(0, 1.0), 3.0);
    EXPECT_NEAR(set.warmupMultiplier(0, 1.5), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(set.warmupMultiplier(0, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(set.warmupMultiplier(0, 5.0), 1.0);
    // Replica 1 never went down: always warm.
    EXPECT_DOUBLE_EQ(set.warmupMultiplier(1, 1.5), 1.0);
}

TEST(ReplicaOptionsValidation, CatchesNonsense)
{
    ReplicaOptions o;
    EXPECT_TRUE(o.validate().empty());
    o.replicas = 0;
    EXPECT_FALSE(o.validate().empty());
    o = {};
    o.warmupFactor = 0.5; // below 1 and not the 0 auto sentinel
    EXPECT_FALSE(o.validate().empty());
    o = {};
    o.warmupSeconds = -1.0;
    EXPECT_FALSE(o.validate().empty());
    o = {};
    o.breaker.errorThreshold = -2;
    EXPECT_FALSE(o.validate().empty());
}

TEST(PolicyValidation, RetryAndHedgeCrossChecks)
{
    RetryPolicy retry;
    EXPECT_TRUE(validateRetryPolicy(retry).empty());
    retry.timeoutSeconds = -1e-3;
    EXPECT_FALSE(validateRetryPolicy(retry).empty());
    retry = {};
    retry.maxRetries = -1;
    EXPECT_FALSE(validateRetryPolicy(retry).empty());

    HedgePolicy hedge;
    hedge.enabled = true;
    retry = {};
    retry.timeoutSeconds = 5e-3;
    hedge.delaySeconds = 1e-3;
    EXPECT_TRUE(validateHedgePolicy(hedge, retry).empty());
    hedge.delaySeconds = 5e-3; // at the timeout: can never fire
    EXPECT_FALSE(validateHedgePolicy(hedge, retry).empty());
    hedge.delaySeconds = -1e-3;
    EXPECT_FALSE(validateHedgePolicy(hedge, retry).empty());

    // Disabled policies are not validated; enabling exposes the issue.
    AdmissionOptions admission;
    admission.maxWaitFraction = -0.1;
    EXPECT_TRUE(validateAdmissionOptions(admission).empty());
    admission.enabled = true;
    EXPECT_FALSE(validateAdmissionOptions(admission).empty());

    DegradeOptions degrade;
    degrade.enabled = true;
    EXPECT_TRUE(validateDegradeOptions(degrade).empty());
    degrade.lowPriorityFraction = 1.5;
    EXPECT_FALSE(validateDegradeOptions(degrade).empty());
    degrade = {};
    degrade.degradedMaxBatch = 0;
    degrade.enabled = true;
    EXPECT_FALSE(validateDegradeOptions(degrade).empty());
}

TEST(PolicyValidation, RunOptionsCheckBothPaths)
{
    RunOptions ok;
    EXPECT_EQ(ok.validate(), "");
    // A hedge that can never fire is rejected on the single-copy path
    // exactly as on the replicated one.
    RunOptions hedge;
    hedge.retry.timeoutSeconds = 1e-3;
    hedge.hedge.enabled = true;
    hedge.hedge.delaySeconds = 2e-3;
    RunOptions mttr;
    mttr.faults.shardMtbfSeconds = 5e-3;
    mttr.faults.shardMttrSeconds = 0.0;
    RunOptions iters;
    iters.measureIters = 0;
    for (const RunOptions &single : {hedge, mttr, iters}) {
        EXPECT_NE(single.validate(), "");
        RunOptions replicated = single;
        replicated.replicas = ReplicaOptions{};
        EXPECT_EQ(replicated.validate(), single.validate());
        ShardedInference sim(broadwell(), rmc1Small(), 2, NetworkConfig{},
                             TimerOptions{});
        EXPECT_THROW(sim.run(single), PanicError);
        EXPECT_THROW(sim.run(replicated), PanicError);
    }
    RunOptions replica;
    replica.replicas = ReplicaOptions{};
    replica.replicas->warmupSeconds = -1.0;
    EXPECT_NE(replica.validate(), "");
}

TEST(FaultOptionsValidation, CatchesNonsense)
{
    FaultOptions f;
    EXPECT_TRUE(f.validate().empty());
    f.stragglerProb = 1.5;
    EXPECT_FALSE(f.validate().empty());
    f = {};
    f.shardMtbfSeconds = -1.0;
    EXPECT_FALSE(f.validate().empty());
    f = {};
    f.stragglerProb = 0.5;
    f.stragglerAlpha = 0.5; // Pareto needs alpha > 1
    EXPECT_FALSE(f.validate().empty());
}

TEST(ServerFaults, StragglersStretchServiceTimes)
{
    ServerOptions clean = overloadOptions();
    clean.jitterSigma = 0.0;
    Server a(broadwell(), rmc1Small(), TimerOptions{}, clean);
    ServingStats sa = a.runClosedLoop(40);

    ServerOptions faulty = clean;
    faulty.faults.stragglerProb = 0.2;
    faulty.faults.stragglerMin = 4.0;
    Server b(broadwell(), rmc1Small(), TimerOptions{}, faulty);
    ServingStats sb = b.runClosedLoop(40);

    double spread_a = sa.serviceTime.p(99) / sa.serviceTime.p(50);
    double spread_b = sb.serviceTime.p(99) / sb.serviceTime.p(50);
    EXPECT_GT(spread_b, spread_a);
    EXPECT_GT(sb.serviceTime.p(99), sa.serviceTime.p(99));
}

} // namespace
} // namespace recperf

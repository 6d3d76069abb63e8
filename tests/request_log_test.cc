/**
 * @file
 * Tests for the per-request causal record plane (obs/request_log.hh):
 * the blame decomposition math, the exemplar reservoirs' edge cases,
 * bitwise determinism of the log across host thread counts and chaos
 * seeds, byte-identity of every other export when logging is off, the
 * JSONL round trip with its strict parser, the CLI-knob validation
 * messages, and the `recperf explain` renderer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/thread_pool.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "obs/metrics.hh"
#include "obs/request_log.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"
#include "timing/model_timer.hh"

namespace recperf {
namespace {

using obs::RequestLogger;
using obs::RequestLogOptions;
using obs::RequestOutcome;
using obs::RequestPhase;
using obs::RequestRecord;
using obs::TailAttribution;

RequestRecord
servedRecord(uint64_t id, double latency,
             RequestPhase phase = RequestPhase::Service)
{
    RequestRecord r;
    r.id = id;
    r.arrival = static_cast<double>(id) * 1e-3;
    r.start = r.arrival;
    r.finish = r.arrival + latency;
    r.latency = latency;
    r.outcome = RequestOutcome::Served;
    r.phase[static_cast<size_t>(phase)] = latency;
    return r;
}

double
blameSum(const TailAttribution &tail)
{
    double sum = 0.0;
    for (double b : tail.blame)
        sum += b;
    return sum;
}

// --- blame decomposition ------------------------------------------------

TEST(AttributeTail, BlameMatchesHandComputation)
{
    // Nine fast all-service requests and one slow one whose extra time
    // is all queueing: p50 = 1 ms, the single tail record (10 ms) has
    // weight (10-1)/10 = 0.9, so mass is 0.9 ms service + 8.1 ms queue
    // and queue owns 90% of the blame.
    std::vector<RequestRecord> records;
    for (uint64_t i = 0; i < 9; ++i)
        records.push_back(servedRecord(i, 1e-3));
    RequestRecord slow = servedRecord(9, 10e-3);
    slow.phase[static_cast<size_t>(RequestPhase::Service)] = 1e-3;
    slow.phase[static_cast<size_t>(RequestPhase::Queue)] = 9e-3;
    records.push_back(slow);

    TailAttribution tail = obs::attributeTail(records);
    EXPECT_EQ(tail.served, 10u);
    EXPECT_DOUBLE_EQ(tail.p50, 1e-3);
    EXPECT_NEAR(tail.gap, tail.p99 - tail.p50, 1e-15);
    double w = (10e-3 - tail.p50) / 10e-3;
    EXPECT_NEAR(tail.mass[static_cast<size_t>(RequestPhase::Queue)],
                9e-3 * w, 1e-12);
    EXPECT_NEAR(tail.mass[static_cast<size_t>(RequestPhase::Service)],
                1e-3 * w, 1e-12);
    EXPECT_NEAR(tail.blame[static_cast<size_t>(RequestPhase::Queue)],
                0.9, 1e-12);
    EXPECT_NEAR(blameSum(tail), 1.0, 1e-12);
}

TEST(AttributeTail, NonServedRecordsAreExcluded)
{
    std::vector<RequestRecord> records;
    for (uint64_t i = 0; i < 4; ++i)
        records.push_back(servedRecord(i, 1e-3));
    RequestRecord shed = servedRecord(99, 50e-3, RequestPhase::Queue);
    shed.outcome = RequestOutcome::ShedAdmission;
    records.push_back(shed);

    TailAttribution tail = obs::attributeTail(records);
    EXPECT_EQ(tail.served, 4u);
    EXPECT_DOUBLE_EQ(tail.blame[static_cast<size_t>(
        RequestPhase::Queue)], 0.0);
}

TEST(AttributeTail, UniformLatenciesFallBackToServiceBlame)
{
    // No record is slower than the median: zero tail mass, but the
    // fractions must still sum to 1 (all on Service by convention).
    std::vector<RequestRecord> records;
    for (uint64_t i = 0; i < 5; ++i)
        records.push_back(servedRecord(i, 2e-3));
    TailAttribution tail = obs::attributeTail(records);
    EXPECT_EQ(tail.excessMass, 0.0);
    EXPECT_DOUBLE_EQ(tail.blame[static_cast<size_t>(
        RequestPhase::Service)], 1.0);
    EXPECT_NEAR(blameSum(tail), 1.0, 1e-12);
}

TEST(AttributeTail, EmptyLogStillSumsToOne)
{
    TailAttribution tail = obs::attributeTail({});
    EXPECT_EQ(tail.served, 0u);
    EXPECT_NEAR(blameSum(tail), 1.0, 1e-12);
}

// --- exemplar reservoirs ------------------------------------------------

TEST(Reservoirs, SlowestKHandlesEmptyAndOversizedK)
{
    RequestLogger log;
    RequestLogOptions opts;
    opts.slowestK = 10;
    log.configure(opts);
    log.setEnabled(true);
    EXPECT_TRUE(log.slowestExemplars().empty());

    log.record(servedRecord(0, 3e-3));
    log.record(servedRecord(1, 1e-3));
    log.record(servedRecord(2, 2e-3));
    // k = 10 > 3 served records: all of them, latency descending.
    std::vector<RequestRecord> slow = log.slowestExemplars();
    ASSERT_EQ(slow.size(), 3u);
    EXPECT_EQ(slow[0].id, 0u);
    EXPECT_EQ(slow[1].id, 2u);
    EXPECT_EQ(slow[2].id, 1u);
    log.setEnabled(false);
}

TEST(Reservoirs, DuplicateLatenciesBreakTiesByIdAscending)
{
    RequestLogger log;
    RequestLogOptions opts;
    opts.slowestK = 2;
    log.configure(opts);
    log.setEnabled(true);
    log.record(servedRecord(5, 2e-3));
    log.record(servedRecord(3, 2e-3));
    log.record(servedRecord(8, 2e-3));
    std::vector<RequestRecord> slow = log.slowestExemplars();
    ASSERT_EQ(slow.size(), 2u);
    EXPECT_EQ(slow[0].id, 3u);
    EXPECT_EQ(slow[1].id, 5u);
    log.setEnabled(false);
}

TEST(Reservoirs, WindowExcludesOldRecords)
{
    RequestLogger log;
    RequestLogOptions opts;
    opts.slowestK = 4;
    opts.windowSeconds = 1.0;
    log.configure(opts);
    log.setEnabled(true);
    // Slowest record finishes early; the window (anchored at the last
    // finish) must exclude it even though it is the global maximum.
    RequestRecord old = servedRecord(0, 50e-3);
    old.finish = 0.05;
    log.record(old);
    RequestRecord recent = servedRecord(1, 1e-3);
    recent.finish = 10.0;
    log.record(recent);
    std::vector<RequestRecord> slow = log.slowestExemplars();
    ASSERT_EQ(slow.size(), 1u);
    EXPECT_EQ(slow[0].id, 1u);
    log.setEnabled(false);
}

TEST(Reservoirs, DecileExemplarsRespectPerDecileCap)
{
    RequestLogger log;
    RequestLogOptions opts;
    opts.perDecile = 1;
    log.configure(opts);
    log.setEnabled(true);
    for (uint64_t i = 0; i < 40; ++i)
        log.record(servedRecord(i, 1e-4 * static_cast<double>(i + 1)));
    std::vector<RequestRecord> deciles = log.decileExemplars();
    EXPECT_EQ(deciles.size(), 10u);
    for (size_t i = 1; i < deciles.size(); ++i)
        EXPECT_LE(deciles[i - 1].latency, deciles[i].latency);

    opts.perDecile = 0;
    log.configure(opts);
    log.record(servedRecord(0, 1e-3));
    EXPECT_TRUE(log.decileExemplars().empty());
    log.setEnabled(false);
}

TEST(Reservoirs, CapacityDropsAndCounts)
{
    RequestLogger log;
    RequestLogOptions opts;
    opts.capacity = 2;
    log.configure(opts);
    log.setEnabled(true);
    for (uint64_t i = 0; i < 5; ++i)
        log.record(servedRecord(i, 1e-3));
    EXPECT_EQ(log.size(), 2u);
    obs::MetricsRegistry reg;
    log.exportTo(reg);
    EXPECT_EQ(reg.snapshot().counter("tail.requests.recorded"), 5u);
    EXPECT_EQ(reg.snapshot().counter("tail.requests.dropped"), 3u);
    log.setEnabled(false);
}

// --- determinism --------------------------------------------------------

ServerOptions
overloadServerOptions(uint64_t seed)
{
    ServerOptions sopts;
    sopts.numWorkers = 2;
    sopts.maxBatch = 16;
    sopts.slaSeconds = 1.5e-3;
    sopts.seed = seed;
    sopts.admission.enabled = true;
    sopts.deadlineSeconds = 4e-3;
    return sopts;
}

/** Overloaded serve run with the global logger on; returns the JSONL. */
std::string
loggedServeRun(uint64_t seed)
{
    RequestLogger &rlog = RequestLogger::global();
    rlog.configure(RequestLogOptions{});
    rlog.setEnabled(true);
    TimerOptions topts;
    topts.batch = 16;
    Server server(broadwell(), rmc1Small(), topts,
                  overloadServerOptions(seed));
    server.runOpenLoop(250000.0, 1200);
    std::string jsonl = rlog.toJsonl();
    rlog.setEnabled(false);
    return jsonl;
}

/** Chaos shard run (replicas + hedges + stragglers) with logging. */
std::string
loggedShardRun(uint64_t seed)
{
    RequestLogger &rlog = RequestLogger::global();
    rlog.configure(RequestLogOptions{});
    rlog.setEnabled(true);
    TimerOptions topts;
    topts.batch = 16;
    ShardedInference sim(broadwell(), rmc1Small(), 4, NetworkConfig{},
                         topts);
    RunOptions ropts;
    ropts.warmupIters = 10;
    ropts.measureIters = 120;
    ropts.faults.stragglerProb = 0.2;
    ropts.faults.shardMtbfSeconds = 20e-3;
    ropts.faults.shardMttrSeconds = 2e-3;
    ropts.faults.seed = seed;
    ropts.retry.timeoutSeconds = 2e-3;
    ropts.retry.maxRetries = 2;
    ropts.hedge.enabled = true;
    ropts.deadlineSeconds = 50e-3;
    ReplicaOptions replicas;
    replicas.replicas = 2;
    replicas.seed = seed;
    ropts.replicas = replicas;
    sim.run(ropts);
    std::string jsonl = rlog.toJsonl();
    rlog.setEnabled(false);
    return jsonl;
}

TEST(Determinism, ServeLogBitIdenticalAcrossRunsAndThreadCounts)
{
    int saved = globalThreadCount();
    setGlobalThreadCount(1);
    std::string once = loggedServeRun(11);
    std::string twice = loggedServeRun(11);
    EXPECT_EQ(once, twice) << "same seed, same thread count";
    setGlobalThreadCount(4);
    std::string wide = loggedServeRun(11);
    setGlobalThreadCount(saved);
    EXPECT_EQ(once, wide) << "RECPERF_THREADS must not leak into the "
                             "virtual-time record plane";
    EXPECT_FALSE(once.empty());
}

TEST(Determinism, ShardChaosSeedsAreReproducibleAndTiled)
{
    int saved = globalThreadCount();
    for (uint64_t seed : {3u, 4u, 6u}) {
        setGlobalThreadCount(1);
        std::string narrow = loggedShardRun(seed);
        setGlobalThreadCount(4);
        std::string wide = loggedShardRun(seed);
        EXPECT_EQ(narrow, wide) << "seed " << seed;

        // Parse back and hold the core invariants per seed.
        std::vector<RequestRecord> records;
        std::string err;
        ASSERT_TRUE(obs::parseRequestLog(narrow, &records, &err))
            << err;
        EXPECT_EQ(records.size(), 120u);
        for (const RequestRecord &rec : records) {
            EXPECT_NEAR(rec.phaseSum(), rec.latency,
                        1e-9 + 1e-6 * rec.latency)
                << "seed " << seed << " record " << rec.id;
        }
        EXPECT_NEAR(blameSum(obs::attributeTail(records)), 1.0, 1e-6);
    }
    setGlobalThreadCount(saved);
}

// --- off-path byte identity ---------------------------------------------

/** Trace + timeseries + serving-metrics exports of one seeded run. */
struct RunArtifacts
{
    std::string traceJson;
    std::string timeseriesJsonl;
    std::string metricsJson;
};

RunArtifacts
observedServeRun(bool log_requests)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    obs::TimeSeriesSampler &sampler = obs::TimeSeriesSampler::global();
    sampler.configure(obs::TimeSeriesOptions{});
    sampler.setEnabled(true);
    RequestLogger &rlog = RequestLogger::global();
    if (log_requests) {
        rlog.configure(RequestLogOptions{});
        rlog.setEnabled(true);
    }

    TimerOptions topts;
    topts.batch = 16;
    Server server(broadwell(), rmc1Small(), topts,
                  overloadServerOptions(21));
    ServingStats stats = server.runOpenLoop(250000.0, 800);

    RunArtifacts a;
    tracer.setEnabled(false);
    sampler.setEnabled(false);
    rlog.setEnabled(false);
    a.traceJson = tracer.toJson();
    a.timeseriesJsonl = sampler.toJsonl();
    static obs::MetricsRegistry reg;
    reg.reset();
    stats.exportTo(reg);
    a.metricsJson = reg.snapshot().toJson();
    return a;
}

TEST(OffPath, EnablingTheLoggerLeavesEveryOtherExportByteIdentical)
{
    RunArtifacts off = observedServeRun(false);
    RunArtifacts on = observedServeRun(true);
    EXPECT_EQ(off.traceJson, on.traceJson);
    EXPECT_EQ(off.timeseriesJsonl, on.timeseriesJsonl);
    EXPECT_EQ(off.metricsJson, on.metricsJson);
    // And the legacy exports never grow tail.* keys on their own.
    EXPECT_EQ(off.metricsJson.find("tail."), std::string::npos);
}

// --- JSONL round trip and strict parsing --------------------------------

TEST(RoundTrip, ToJsonlParsesBackToTheSameRecords)
{
    std::string jsonl = loggedShardRun(3);
    std::vector<RequestRecord> records;
    std::string err;
    ASSERT_TRUE(obs::parseRequestLog(jsonl, &records, &err)) << err;
    ASSERT_EQ(records.size(), 120u);
    for (size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i].id, static_cast<uint64_t>(i));
    // Re-serializing the parsed records reproduces the log: nothing
    // the blame math needs is lost in the %.9g round trip.
    std::string again;
    for (const RequestRecord &rec : records)
        again += obs::requestRecordJson(rec) + "\n";
    EXPECT_EQ(jsonl, again);
}

TEST(Parse, MalformedLogsFailLoudlyWithLineNumbers)
{
    std::vector<RequestRecord> out;
    std::string err;
    EXPECT_FALSE(obs::parseRequestLog("", &out, &err));
    EXPECT_NE(err.find("empty"), std::string::npos) << err;

    EXPECT_FALSE(obs::parseRequestLog("{not json\n", &out, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;

    std::string good = obs::requestRecordJson(servedRecord(0, 1e-3));
    EXPECT_FALSE(
        obs::parseRequestLog(good + "\n[1, 2]\n", &out, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;

    // Truncated mid-record: the cut line must fail, not parse as a
    // shorter log.
    std::string truncated = good.substr(0, good.size() / 2);
    EXPECT_FALSE(obs::parseRequestLog(truncated + "\n", &out, &err));

    std::string bad_outcome = good;
    bad_outcome.replace(bad_outcome.find("served"), 6, "lost42");
    EXPECT_FALSE(
        obs::parseRequestLog(bad_outcome + "\n", &out, &err));
    EXPECT_NE(err.find("outcome"), std::string::npos) << err;

    std::string bad_phase = good;
    bad_phase.replace(bad_phase.find("service"), 7, "voodoo7");
    EXPECT_FALSE(obs::parseRequestLog(bad_phase + "\n", &out, &err));
    EXPECT_NE(err.find("phase"), std::string::npos) << err;
}

TEST(Parse, IntegerFieldsRejectFractionsAndOutOfRange)
{
    // Each counter field is an integer within its field's range (the
    // brownout level within the ladder's); anything else is a line
    // error, never an out-of-range float-to-int cast.
    std::string good = obs::requestRecordJson(servedRecord(0, 1e-3));
    auto with = [&](const std::string &fields) {
        return good.substr(0, good.rfind('}')) + ", " + fields + "}\n";
    };
    std::vector<RequestRecord> out;
    std::string err;
    ASSERT_TRUE(obs::parseRequestLog(
        with("\"brownout_level\": 3, \"replica\": -1, "
             "\"retries\": 65535, \"batch_items\": 4294967295"),
        &out, &err))
        << err;
    EXPECT_EQ(out[0].brownoutLevel, 3);
    EXPECT_EQ(out[0].replica, -1);
    EXPECT_EQ(out[0].retries, 65535);
    EXPECT_EQ(out[0].batchItems, 4294967295u);
    for (const char *bad :
         {"\"brownout_level\": 9", "\"brownout_level\": 1.5",
          "\"brownout_level\": -1", "\"retries\": 65536",
          "\"hedges\": 2.5", "\"hedge_wins\": -3", "\"replica\": -2",
          "\"critical_shard\": 1e300", "\"batch_items\": 4294967296",
          "\"breaker_rejects\": 0.5"}) {
        EXPECT_FALSE(obs::parseRequestLog(with(bad), &out, &err)) << bad;
        EXPECT_NE(err.find("line 1"), std::string::npos) << err;
        EXPECT_NE(err.find("integer"), std::string::npos) << err;
    }
}

// --- CLI knob validation ------------------------------------------------

TEST(ValidateArgs, RejectsBadKnobsWithActionableMessages)
{
    using obs::validateRequestLogArgs;
    EXPECT_EQ(validateRequestLogArgs(4, 0.0, true, false, false), "");
    EXPECT_EQ(validateRequestLogArgs(1, 0.5, true, true, true), "");
    EXPECT_EQ(validateRequestLogArgs(4, 0.0, false, false, false), "");

    EXPECT_NE(validateRequestLogArgs(0, 0.0, true, true, false)
                  .find("--request-log-k"),
              std::string::npos);
    EXPECT_NE(validateRequestLogArgs(4, -1.0, true, false, true)
                  .find("--request-log-window-ms"),
              std::string::npos);
    // Tuning knobs without a sink are a spec error, not a no-op.
    EXPECT_NE(validateRequestLogArgs(8, 0.0, false, true, false)
                  .find("no effect"),
              std::string::npos);
    EXPECT_NE(validateRequestLogArgs(4, 0.5, false, false, true)
                  .find("no effect"),
              std::string::npos);
}

// --- explain ------------------------------------------------------------

TEST(Explain, RendersAttributionExemplarsAndDecilesFromLogAlone)
{
    obs::ExplainInputs inputs;
    inputs.requestLogJsonl = loggedShardRun(6);
    std::string err;
    std::string view = obs::renderExplain(inputs, err);
    ASSERT_FALSE(view.empty()) << err;
    EXPECT_NE(view.find("== Tail attribution"), std::string::npos);
    EXPECT_NE(view.find("== Slowest exemplars =="), std::string::npos);
    EXPECT_NE(view.find("== Latency deciles"), std::string::npos);
    EXPECT_NE(view.find("blame fractions sum to 1.000000"),
              std::string::npos)
        << view;
    // No metrics artifact: no cross-check section.
    EXPECT_EQ(view.find("Metrics cross-check"), std::string::npos);
}

TEST(Explain, MetricsJoinCrossChecksBlameGauges)
{
    std::string jsonl = loggedShardRun(4);
    static obs::MetricsRegistry reg;
    reg.reset();
    RequestLogger::global().exportTo(reg);

    obs::ExplainInputs inputs;
    inputs.requestLogJsonl = jsonl;
    inputs.metricsJson = reg.snapshot().toJson();
    std::string err;
    std::string view = obs::renderExplain(inputs, err);
    ASSERT_FALSE(view.empty()) << err;
    EXPECT_NE(view.find("== Metrics cross-check =="),
              std::string::npos);
    EXPECT_NE(view.find("match the log within 1e-6"),
              std::string::npos)
        << view;

    // A doctored gauge must fail the join, not render quietly.
    std::string doctored = inputs.metricsJson;
    size_t pos = doctored.find("tail.blame.");
    ASSERT_NE(pos, std::string::npos);
    size_t colon = doctored.find(": ", pos);
    ASSERT_NE(colon, std::string::npos);
    size_t end = doctored.find_first_of(",\n}", colon);
    doctored.replace(colon + 2, end - colon - 2, "0.5");
    inputs.metricsJson = doctored;
    EXPECT_EQ(obs::renderExplain(inputs, err), "");
    EXPECT_FALSE(err.empty());
}

TEST(Explain, MalformedLogIsAnErrorNotACrash)
{
    obs::ExplainInputs inputs;
    inputs.requestLogJsonl = "{broken\n";
    std::string err;
    EXPECT_EQ(obs::renderExplain(inputs, err), "");
    EXPECT_FALSE(err.empty());
}

} // namespace
} // namespace recperf

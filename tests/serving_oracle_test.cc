/**
 * @file
 * Golden export oracle for request settlement.
 *
 * Each cell runs one serving configuration, in a forked child of the
 * test process, with every observability sink on (trace, hardware
 * telemetry, time series, request log) and pins a 64-bit FNV-1a hash
 * of each of the five exports: the Chrome trace JSON, the metrics JSON,
 * the request-log JSONL, the exemplars JSONL and the time-series
 * JSONL. The hashes were recorded before the serving loops'
 * per-outcome sink writes were folded into one settlement path, so any
 * drift in what either loop writes — a missing instant, a reordered
 * record, a burn-rate feed that changed — fails here byte for byte.
 *
 * Every export is virtual-time only, so nothing host-dependent enters
 * a hash: the trace holds no wall lanes (the serving loops open no
 * wall spans), and the metrics carry no wall-clock gauges.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "obs/hw_counters.hh"
#include "obs/metrics.hh"
#include "obs/request_log.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "resilience/replica_set.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"
#include "timing/model_timer.hh"

namespace recperf {
namespace {

using obs::RequestOutcome;
using obs::RequestRecord;

/** 64-bit FNV-1a over a string's bytes. */
uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Hashes of the five exports of one run, and its outcome counts. */
struct Exports
{
    uint64_t trace = 0;
    uint64_t metrics = 0;
    uint64_t requests = 0;
    uint64_t exemplars = 0;
    uint64_t series = 0;
    bool parsed = false;
    size_t outcomes[obs::kNumRequestOutcomes] = {};

    size_t
    count(RequestOutcome outcome) const
    {
        return outcomes[static_cast<size_t>(outcome)];
    }
};

/**
 * Run @p body with every sink enabled and hash the exports, collected
 * in the order the CLI writes them: the run's own counters first, then
 * the telemetry, time-series and request-log metrics. The run happens
 * in a forked child, so each cell starts from a fresh process exactly
 * as under ctest, whatever ran before it in this binary: process-wide
 * state such as the tracer's wall-lane numbering or the registrations
 * MetricsRegistry::reset() keeps cannot leak from one cell into the
 * next.
 */
Exports
observedRun(const std::function<void(obs::MetricsRegistry &)> &body)
{
    int fds[2];
    EXPECT_EQ(pipe(fds), 0);
    pid_t child = fork();
    if (child == 0) {
        close(fds[0]);
        obs::Tracer &tracer = obs::Tracer::global();
        obs::HwTelemetry &telem = obs::HwTelemetry::global();
        obs::TimeSeriesSampler &sampler = obs::TimeSeriesSampler::global();
        obs::RequestLogger &rlog = obs::RequestLogger::global();
        tracer.setEnabled(true);
        telem.setEnabled(true);
        obs::TimeSeriesOptions topts;
        topts.intervalSeconds = 1e-3;
        sampler.configure(topts);
        sampler.setEnabled(true);
        rlog.configure(obs::RequestLogOptions{});
        rlog.setEnabled(true);

        obs::MetricsRegistry registry;
        body(registry);
        telem.exportTo(registry);
        sampler.exportTo(registry);
        rlog.exportTo(registry);

        Exports e;
        std::string requests = rlog.toJsonl();
        e.requests = fnv1a(requests);
        e.exemplars = fnv1a(rlog.exemplarsJsonl());
        e.series = fnv1a(sampler.toJsonl());
        tracer.setEnabled(false);
        e.trace = fnv1a(tracer.toJson());
        e.metrics = fnv1a(registry.snapshot().toJson());
        std::vector<RequestRecord> records;
        std::string err;
        e.parsed = obs::parseRequestLog(requests, &records, &err);
        for (const RequestRecord &rec : records)
            ++e.outcomes[static_cast<size_t>(rec.outcome)];
        bool sent = write(fds[1], &e, sizeof(e)) ==
            static_cast<ssize_t>(sizeof(e));
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    Exports e;
    EXPECT_EQ(read(fds[0], &e, sizeof(e)), static_cast<ssize_t>(sizeof(e)));
    close(fds[0]);
    int status = 0;
    EXPECT_EQ(waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_TRUE(e.parsed) << "request log must parse";
    return e;
}

struct Golden
{
    uint64_t trace;
    uint64_t metrics;
    uint64_t requests;
    uint64_t exemplars;
    uint64_t series;
};

void
expectGolden(const Exports &e, const Golden &g)
{
    EXPECT_EQ(e.trace, g.trace) << "trace JSON";
    EXPECT_EQ(e.metrics, g.metrics) << "metrics JSON";
    EXPECT_EQ(e.requests, g.requests) << "request-log JSONL";
    EXPECT_EQ(e.exemplars, g.exemplars) << "exemplars JSONL";
    EXPECT_EQ(e.series, g.series) << "time-series JSONL";
}

/** The CI overload serve run: rmc1, 2 workers at ~1.25x capacity, a
 *  1.5 ms SLA and deadline, brownout ladder with a 5 ms dwell. */
TEST(SettlementOracle, ServeOverloadBrownout)
{
    Exports e = observedRun([](obs::MetricsRegistry &registry) {
        ServerOptions sopts;
        sopts.numWorkers = 2;
        sopts.maxBatch = 16;
        sopts.slaSeconds = 1.5e-3;
        sopts.deadlineSeconds = 1.5e-3;
        sopts.brownout.enabled = true;
        sopts.brownout.dwellSeconds = 5e-3;
        TimerOptions topts;
        Server server(broadwell(), rmc1Small(), topts, sopts);
        server.runOpenLoop(400000.0, 4000).exportTo(registry);
    });
    EXPECT_GT(e.count(RequestOutcome::Served), 0u);
    EXPECT_GT(e.count(RequestOutcome::ShedAdmissionDeadline) +
                  e.count(RequestOutcome::ShedDeadlineQueue) +
                  e.count(RequestOutcome::Cancelled),
              0u);
    expectGolden(e, {5965515228753481654ULL, 17270726603847655462ULL,
                     8731424761931671473ULL, 9336058035150016320ULL,
                     16981225714144259607ULL});
}

/** perfbench's shard shape, shorter: p2c over 2 replicas, chaos
 *  windows, auto hedging, a 0.5 ms deadline, SDC scrub/inline/guards. */
TEST(SettlementOracle, ShardReplicatedChaosSdc)
{
    Exports e = observedRun([](obs::MetricsRegistry &registry) {
        TimerOptions topts;
        topts.batch = 16;
        ShardedInference sim(skylake(), rmc1Small(), 4, NetworkConfig{},
                             topts);
        RunOptions r;
        r.warmupIters = 20;
        r.measureIters = 300;
        r.faults.stragglerProb = 0.05;
        r.faults.shardMtbfSeconds = 20e-3;
        r.faults.shardMttrSeconds = 1e-3;
        r.faults.seed = 12;
        r.faults.corruption.ratePerSec = 200.0;
        r.hedge.enabled = true;
        ReplicaOptions rep;
        rep.replicas = 2;
        rep.router = RouterPolicy::PowerOfTwo;
        rep.seed = 13;
        r.replicas = rep;
        r.deadlineSeconds = 0.5e-3;
        r.sdc.scrubIntervalSeconds = 10e-3;
        r.sdc.inlineSampleRate = 0.1;
        r.sdc.outputGuards = true;
        ChaosSchedule chaos = ChaosSchedule::random(
            14, 4, rep.replicas, r.measureIters * 0.12e-3, 2, 2e-3);
        r.chaos = &chaos;
        sim.run(r).exportTo(registry);
    });
    EXPECT_GT(e.count(RequestOutcome::Served), 0u);
    EXPECT_GT(e.count(RequestOutcome::Cancelled), 0u);
    expectGolden(e, {8132000556639771338ULL, 3472806648490134157ULL,
                     3243217131369620443ULL, 5134831152978152688ULL,
                     5756743395807155691ULL});
}

/** Single-copy path: MTBF/MTTR down windows, stragglers, hedging to
 *  the implicit spare, a tight timeout and retry budget, and a
 *  deadline that clamps the timeouts. */
TEST(SettlementOracle, ShardSingleCopyFaults)
{
    Exports e = observedRun([](obs::MetricsRegistry &registry) {
        TimerOptions topts;
        topts.batch = 16;
        ShardedInference sim(broadwell(), rmc1Small(), 4, NetworkConfig{},
                             topts);
        RunOptions r;
        r.warmupIters = 10;
        r.measureIters = 300;
        r.faults.stragglerProb = 0.4;
        r.faults.shardMtbfSeconds = 3e-3;
        r.faults.shardMttrSeconds = 2e-3;
        r.faults.seed = 7;
        r.retry.timeoutSeconds = 0.09e-3;
        r.retry.maxRetries = 1;
        r.hedge.enabled = true;
        r.deadlineSeconds = 0.35e-3;
        sim.run(r).exportTo(registry);
    });
    EXPECT_GT(e.count(RequestOutcome::Served), 0u);
    EXPECT_GT(e.count(RequestOutcome::Failed), 0u);
    expectGolden(e, {10850248216744930323ULL, 532131745206707779ULL,
                     14992482724439420419ULL, 2127888827469562355ULL,
                     12071563674794118998ULL});
}

} // namespace
} // namespace recperf

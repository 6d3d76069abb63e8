/**
 * @file
 * Tests for the observability layer (src/obs): metrics registry
 * merging across thread shards, HDR histogram accuracy against the
 * exact LatencySample statistics, Chrome trace-event JSON
 * well-formedness and span nesting, virtual-time determinism across
 * thread counts, and the near-zero cost of the disabled path.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "core/stats.hh"
#include "core/thread_pool.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "obs/hw_counters.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serving/server.hh"

namespace recperf {
namespace {

// --- Minimal JSON validator -------------------------------------------
//
// Enough of a recursive-descent parser to establish that the emitted
// trace/metrics documents are structurally valid JSON (objects,
// arrays, strings with escapes, numbers, literals). Returns false on
// the first syntax error.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char *word)
    {
        size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool number()
    {
        size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            break;
        }
        if (pos_ >= s_.size() || s_[pos_] != '}')
            return false;
        ++pos_;
        return true;
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            break;
        }
        if (pos_ >= s_.size() || s_[pos_] != ']')
            return false;
        ++pos_;
        return true;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

// --- Metrics registry --------------------------------------------------

TEST(Metrics, CountersMergeAcrossThreadShards)
{
    int original = globalThreadCount();
    setGlobalThreadCount(4);

    obs::MetricsRegistry reg;
    obs::Counter items = reg.counter("test.items");
    obs::LatencyHistogram lat = reg.histogram("test.latency");
    constexpr int64_t kN = 20000;
    parallelFor(0, kN, 64, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            items.inc();
            lat.record(1e-6 * static_cast<double>(1 + i % 100));
        }
    });
    setGlobalThreadCount(original);

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("test.items"), static_cast<uint64_t>(kN));
    const obs::HistogramSnapshot *h = snap.histogram("test.latency");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, static_cast<uint64_t>(kN));
    EXPECT_NEAR(h->min, 1e-6, 1e-9);
    EXPECT_NEAR(h->max, 100e-6, 1e-9);
}

TEST(Metrics, InterningIsIdempotentAndResetSurvives)
{
    obs::MetricsRegistry reg;
    reg.counter("a").add(3);
    reg.counter("a").add(4);
    reg.gauge("g").set(2.5);
    EXPECT_EQ(reg.snapshot().counter("a"), 7u);
    EXPECT_EQ(reg.snapshot().gauge("g"), 2.5);

    reg.reset();
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("a"), 0u); // registration survives, value zeroed
    EXPECT_EQ(snap.gauge("g"), 0.0);
    reg.counter("a").inc();
    EXPECT_EQ(reg.snapshot().counter("a"), 1u);
}

TEST(Metrics, HistogramPercentilesTrackExactSample)
{
    // Log-uniform latencies over four decades: every percentile of the
    // HDR histogram must stay within the documented ~3% bucket error
    // (we allow 5%) of the exact rank statistic.
    obs::MetricsRegistry reg;
    obs::LatencyHistogram hist = reg.histogram("lat");
    LatencySample exact;
    double exact_sum = 0.0;
    Rng rng(2020);
    for (int i = 0; i < 20000; ++i) {
        double v = std::pow(10.0, -6.0 + 4.0 * rng.nextDouble());
        hist.record(v);
        exact.add(v);
        exact_sum += v;
    }
    obs::MetricsSnapshot snap = reg.snapshot();
    const obs::HistogramSnapshot *h = snap.histogram("lat");
    ASSERT_NE(h, nullptr);
    for (double pct : {10.0, 50.0, 90.0, 95.0, 99.0}) {
        double approx = h->percentile(pct);
        double truth = exact.p(pct);
        EXPECT_NEAR(approx / truth, 1.0, 0.05)
            << "p" << pct << ": " << approx << " vs exact " << truth;
    }
    double exact_mean = exact_sum / 20000.0;
    EXPECT_NEAR(h->mean(), exact_mean, 0.01 * exact_mean);
}

TEST(Metrics, BucketRoundTripStaysWithinHalfSubBucket)
{
    for (double v : {2e-9, 1e-7, 3.7e-6, 1e-4, 0.42, 17.0}) {
        size_t i = obs::LatencyHistogram::bucketIndex(v);
        double mid = obs::LatencyHistogram::bucketMidpoint(i);
        EXPECT_NEAR(mid / v, 1.0, 1.0 / 16.0)
            << "value " << v << " bucket " << i;
    }
}

TEST(Metrics, EmptyHistogramReportsZeroesEverywhere)
{
    obs::MetricsRegistry reg;
    (void)reg.histogram("never.recorded");
    obs::MetricsSnapshot snap = reg.snapshot();
    const obs::HistogramSnapshot *h = snap.histogram("never.recorded");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 0u);
    EXPECT_DOUBLE_EQ(h->mean(), 0.0);
    for (double pct : {0.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h->percentile(pct), 0.0) << "p" << pct;
}

TEST(Metrics, SingleSampleHistogramPinsEveryPercentile)
{
    obs::MetricsRegistry reg;
    obs::LatencyHistogram hist = reg.histogram("one");
    hist.record(3.7e-4);
    obs::MetricsSnapshot snap = reg.snapshot();
    const obs::HistogramSnapshot *h = snap.histogram("one");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1u);
    // With one sample min == max == the sample; percentiles clamp to
    // that range instead of reporting a bucket midpoint.
    for (double pct : {1.0, 50.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(h->percentile(pct), 3.7e-4) << "p" << pct;
    EXPECT_DOUBLE_EQ(h->min, 3.7e-4);
    EXPECT_DOUBLE_EQ(h->max, 3.7e-4);
}

TEST(Metrics, AboveTopBucketValuesClampToLastBucket)
{
    // 2^40 ns (~18 min) is the histogram's top octave; an hour-long
    // "latency" must land in the last bucket, not index out of range.
    size_t top = obs::LatencyHistogram::bucketIndex(3600.0);
    EXPECT_EQ(top, obs::LatencyHistogram::kNumBuckets - 1);

    obs::MetricsRegistry reg;
    obs::LatencyHistogram hist = reg.histogram("huge");
    hist.record(3600.0);
    hist.record(7200.0);
    obs::MetricsSnapshot snap = reg.snapshot();
    const obs::HistogramSnapshot *h = snap.histogram("huge");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2u);
    // Percentiles clamp to the recorded [min, max], so the saturated
    // bucket midpoint never exaggerates past the true maximum.
    EXPECT_LE(h->percentile(99.0), 7200.0);
    EXPECT_GE(h->percentile(1.0), 3600.0);
}

TEST(Metrics, NonFiniteAndNegativeSamplesAreSanitized)
{
    obs::MetricsRegistry reg;
    obs::LatencyHistogram hist = reg.histogram("dirty");
    hist.record(std::nan(""));
    hist.record(-1.0);
    hist.record(std::numeric_limits<double>::infinity());
    hist.record(2e-6);
    obs::MetricsSnapshot snap = reg.snapshot();
    const obs::HistogramSnapshot *h = snap.histogram("dirty");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 4u);
    // NaN/negative collapse to 0 instead of poisoning sum/min/max;
    // +inf saturates into the top bucket rather than breaking mean().
    EXPECT_DOUBLE_EQ(h->min, 0.0);
    EXPECT_TRUE(std::isfinite(h->mean()));
    EXPECT_TRUE(std::isfinite(h->percentile(99.0)));
}

TEST(Metrics, JsonAndTableAreWellFormed)
{
    obs::MetricsRegistry reg;
    reg.counter("c.one").add(42);
    reg.gauge("g\"quoted").set(1.5);
    reg.histogram("h.lat").record(3e-6);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_TRUE(JsonChecker(snap.toJson()).valid()) << snap.toJson();
    EXPECT_NE(snap.table().find("c.one"), std::string::npos);
}

// --- Tracer ------------------------------------------------------------

TEST(Trace, DisabledPathEmitsNothing)
{
    obs::Tracer tracer;
    tracer.span("cat", "ignored", 0.0, 1.0, 0);
    tracer.instant("cat", "ignored", 0.5, 0);
    tracer.counter("cat", "ignored", 0.5, 0, 1.0);
    { obs::Tracer::Scope scope(tracer, "cat", "ignored"); }
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Trace, DisabledScopeIsCheap)
{
    // The off-by-default contract: a disabled emission site costs one
    // relaxed load and a branch. 1M constructions in well under a
    // second leaves orders of magnitude of slack on any CI machine.
    obs::Tracer tracer;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000000; ++i)
        obs::Tracer::Scope scope(tracer, "op", "noop");
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_LT(elapsed, 0.5);
}

TEST(Trace, JsonIsWellFormedAndOrdered)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.nameLane(0, "queue");
    tracer.nameLane(1, "worker \"0\"");
    tracer.span("serve", "batch", 1e-3, 2e-3, 1, {{"items", "16"}});
    tracer.span("op", "FC", 1e-3, 1.5e-3, 1, {{"kind", "FC"}});
    tracer.instant("serve", "shed", 0.5e-3, 0);
    tracer.counter("serve", "queue_depth", 1e-3, 0, 3.0);
    tracer.setEnabled(false);

    std::vector<obs::TraceEvent> events = tracer.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].tsUs, events[i].tsUs);

    EXPECT_TRUE(JsonChecker(tracer.toJson()).valid()) << tracer.toJson();
}

TEST(Trace, ClearForgetsLaneNames)
{
    // A second traced run in one process must export only the lanes it
    // names itself, not the first run's (e.g. SDC scrub lanes).
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    tracer.nameLane(5, "scrub s0");
    tracer.span("sdc", "scrub", 0.0, 1e-3, 5);
    tracer.clear();
    tracer.nameLane(1, "worker 0");
    tracer.span("serve", "batch", 0.0, 1e-3, 1);
    tracer.setEnabled(false);

    std::string json = tracer.toJson();
    EXPECT_NE(json.find("\"worker 0\""), std::string::npos) << json;
    EXPECT_EQ(json.find("scrub"), std::string::npos) << json;
    EXPECT_EQ(tracer.snapshot().size(), 1u);
    tracer.clear();
}

TEST(Trace, SuccessiveStackTracersKeepTheirOwnEvents)
{
    // Each iteration builds its tracer in the same stack slot the last
    // one died in; the thread's cached buffer must not carry over.
    for (int run = 0; run < 2; ++run) {
        obs::Tracer tracer;
        tracer.setEnabled(true);
        tracer.span("serve", "batch", 0.0, 1e-3, 1);
        tracer.setEnabled(false);
        EXPECT_EQ(tracer.snapshot().size(), 1u) << "run " << run;
    }
}

TEST(Trace, VirtualSpansNestPerLane)
{
    // Run a small serving simulation with tracing on and check the
    // stack discipline of virtual-lane spans: within each lane,
    // every span must lie inside the enclosing open span.
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    ServerOptions opts;
    opts.numWorkers = 2;
    opts.maxBatch = 8;
    opts.slaSeconds = 0.01;
    Server server(broadwell(), rmc1Small(), TimerOptions{}, opts);
    (void)server.runOpenLoop(2000.0, 400);
    tracer.setEnabled(false);

    std::vector<obs::TraceEvent> events = tracer.snapshot();
    ASSERT_FALSE(events.empty());

    std::map<uint32_t, std::vector<const obs::TraceEvent *>> lanes;
    for (const obs::TraceEvent &ev : events) {
        if (ev.ph == 'X' && ev.tid < obs::Tracer::kWallTidBase)
            lanes[ev.tid].push_back(&ev);
    }
    ASSERT_FALSE(lanes.empty());
    constexpr double kSlackUs = 1e-3; // FP rounding in us conversions
    for (const auto &[tid, spans] : lanes) {
        std::vector<const obs::TraceEvent *> stack;
        for (const obs::TraceEvent *ev : spans) {
            while (!stack.empty() &&
                   ev->tsUs >=
                       stack.back()->tsUs + stack.back()->durUs - kSlackUs)
                stack.pop_back();
            if (!stack.empty()) {
                EXPECT_LE(ev->tsUs + ev->durUs,
                          stack.back()->tsUs + stack.back()->durUs +
                              kSlackUs)
                    << ev->name << " escapes " << stack.back()->name
                    << " on lane " << tid;
            }
            stack.push_back(ev);
        }
    }
    tracer.clear();
}

TEST(Trace, OpSpansTileTheirBatchSpan)
{
    // Acceptance invariant: per-op spans must sum to the enclosing
    // batch span within 1%.
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    ServerOptions opts;
    opts.numWorkers = 1;
    opts.maxBatch = 8;
    opts.slaSeconds = 0.01;
    Server server(broadwell(), rmc2Small(), TimerOptions{}, opts);
    (void)server.runOpenLoop(1000.0, 200);
    tracer.setEnabled(false);

    double batch_us = 0.0, op_us = 0.0;
    size_t batches = 0;
    for (const obs::TraceEvent &ev : tracer.snapshot()) {
        if (ev.ph != 'X')
            continue;
        if (std::string(ev.cat) == "serve" && ev.name == "batch") {
            batch_us += ev.durUs;
            ++batches;
        } else if (std::string(ev.cat) == "op") {
            op_us += ev.durUs;
        }
    }
    ASSERT_GT(batches, 0u);
    ASSERT_GT(op_us, 0.0);
    EXPECT_NEAR(op_us / batch_us, 1.0, 0.01);
    tracer.clear();
}

std::vector<obs::TraceEvent>
virtualServeTrace(int threads)
{
    int original = globalThreadCount();
    setGlobalThreadCount(threads);
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    ServerOptions opts;
    opts.numWorkers = 2;
    opts.maxBatch = 8;
    opts.slaSeconds = 0.01;
    opts.jitterSigma = 0.05;
    Server server(broadwell(), rmc1Small(), TimerOptions{}, opts);
    (void)server.runOpenLoop(3000.0, 300);
    tracer.setEnabled(false);
    setGlobalThreadCount(original);

    std::vector<obs::TraceEvent> virtual_events;
    for (const obs::TraceEvent &ev : tracer.snapshot()) {
        if (ev.tid < obs::Tracer::kWallTidBase)
            virtual_events.push_back(ev);
    }
    tracer.clear();
    return virtual_events;
}

TEST(Trace, VirtualTimeTraceIsDeterministicAcrossThreadCounts)
{
    std::vector<obs::TraceEvent> one = virtualServeTrace(1);
    std::vector<obs::TraceEvent> four = virtualServeTrace(4);
    ASSERT_FALSE(one.empty());
    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].name, four[i].name) << "event " << i;
        EXPECT_EQ(one[i].tid, four[i].tid) << "event " << i;
        EXPECT_EQ(one[i].tsUs, four[i].tsUs) << "event " << i;
        EXPECT_EQ(one[i].durUs, four[i].durUs) << "event " << i;
    }
}

std::vector<obs::TraceEvent>
counterServeTrace(int threads)
{
    int original = globalThreadCount();
    setGlobalThreadCount(threads);
    obs::Tracer &tracer = obs::Tracer::global();
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    tracer.clear();
    telem.reset();
    tracer.setEnabled(true);
    telem.setEnabled(true);
    ServerOptions opts;
    opts.numWorkers = 2;
    opts.maxBatch = 8;
    opts.slaSeconds = 0.01;
    Server server(broadwell(), rmc1Small(), TimerOptions{}, opts);
    (void)server.runOpenLoop(3000.0, 300);
    telem.setEnabled(false);
    tracer.setEnabled(false);
    setGlobalThreadCount(original);

    std::vector<obs::TraceEvent> counter_events;
    for (const obs::TraceEvent &ev : tracer.snapshot()) {
        if (ev.ph == 'C' && ev.tid < obs::Tracer::kWallTidBase)
            counter_events.push_back(ev);
    }
    tracer.clear();
    telem.reset();
    return counter_events;
}

TEST(Trace, CounterTraceIsDeterministicAcrossThreadCounts)
{
    // Acceptance: hardware-counter events ride the virtual clock, so
    // the emitted series -- names, lanes, timestamps, and values --
    // must be bit-identical whether the host uses 1 thread or 4.
    std::vector<obs::TraceEvent> one = counterServeTrace(1);
    std::vector<obs::TraceEvent> four = counterServeTrace(4);
    ASSERT_FALSE(one.empty());
    ASSERT_EQ(one.size(), four.size());
    double prev_ts = 0.0;
    std::map<std::string, double> last_value;
    for (size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].name, four[i].name) << "event " << i;
        EXPECT_EQ(one[i].tid, four[i].tid) << "event " << i;
        EXPECT_EQ(one[i].tsUs, four[i].tsUs) << "event " << i;
        ASSERT_EQ(one[i].args.size(), 1u);
        ASSERT_EQ(four[i].args.size(), 1u);
        EXPECT_EQ(one[i].args[0].second, four[i].args[0].second)
            << "event " << i << " (" << one[i].name << ")";

        // Per-track invariants check_trace.py enforces on artifacts:
        // monotone timestamps, and non-decreasing values for the
        // cumulative tracks (MPKI is a ratio gauge, free to dip).
        EXPECT_GE(one[i].tsUs, prev_ts) << "event " << i;
        prev_ts = one[i].tsUs;
        if (one[i].name.find("mpki") == std::string::npos) {
            double value = std::stod(one[i].args[0].second);
            auto it = last_value.find(one[i].name);
            if (it != last_value.end())
                EXPECT_GE(value, it->second) << one[i].name;
            last_value[one[i].name] = value;
        }
    }
}

TEST(Trace, WallClockScopesLandOnWallLanes)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    { obs::Tracer::Scope scope(tracer, "op", "unit-test-scope"); }
    tracer.setEnabled(false);
    bool found = false;
    for (const obs::TraceEvent &ev : tracer.snapshot()) {
        if (ev.name == "unit-test-scope") {
            found = true;
            EXPECT_GE(ev.tid, obs::Tracer::kWallTidBase);
            EXPECT_GE(ev.durUs, 0.0);
        }
    }
    EXPECT_TRUE(found);
    tracer.clear();
}

} // namespace
} // namespace recperf

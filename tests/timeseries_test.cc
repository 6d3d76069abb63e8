/**
 * @file
 * Tests for the virtual-time series sampler (obs::TimeSeriesSampler):
 * fixed-cadence capture, ring-buffer overflow and fast-forward
 * accounting, SLO burn-rate windows, JSONL shape, metrics export, and
 * the disabled-path contract.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "obs/hw_counters.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"

namespace recperf {
namespace {

obs::TimeSeriesOptions
smallOptions(obs::HwTelemetry *telem = nullptr)
{
    obs::TimeSeriesOptions opts;
    opts.intervalSeconds = 0.1;
    opts.capacity = 8;
    opts.shortWindowSeconds = 1.0;
    opts.longWindowSeconds = 10.0;
    opts.telemetry = telem;
    return opts;
}

/** A counter of the sampler's metrics export. */
uint64_t
exported(const obs::TimeSeriesSampler &sampler, const char *name)
{
    obs::MetricsRegistry reg;
    sampler.exportTo(reg);
    return reg.snapshot().counter(name);
}

TEST(TimeSeries, FixedCadenceAnchorsAtFirstTick)
{
    obs::TimeSeriesSampler sampler;
    sampler.configure(smallOptions());
    sampler.setEnabled(true);
    sampler.tick(5.0);   // anchor + first sample
    sampler.tick(5.05);  // before next interval: nothing
    sampler.tick(5.25);  // crosses 5.1 and 5.2: two samples
    std::vector<obs::TimeSeriesSample> s = sampler.samples();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s[0].t, 5.0);
    EXPECT_NEAR(s[1].t, 5.1, 1e-9);
    EXPECT_NEAR(s[2].t, 5.2, 1e-9);
    EXPECT_EQ(exported(sampler, "timeseries.samples_taken"), 3u);
    EXPECT_EQ(exported(sampler, "timeseries.samples_dropped"), 0u);
}

TEST(TimeSeries, RingOverflowDropsOldestAndFastForwards)
{
    obs::TimeSeriesSampler sampler;
    sampler.configure(smallOptions()); // capacity 8, interval 0.1
    sampler.setEnabled(true);
    sampler.tick(0.0);
    // Jump 10 seconds: 101 samples pending >> capacity 8. The sampler
    // must keep only the trailing window, count the rest as dropped,
    // and not loop 100 times building evicted samples.
    sampler.tick(10.0);
    std::vector<obs::TimeSeriesSample> s = sampler.samples();
    ASSERT_EQ(s.size(), 8u);
    // The ring holds the trailing ~0.8 s window ending near t = 10
    // (exact endpoints depend on FP accumulation of the 0.1 steps).
    EXPECT_GT(s.back().t, 9.85);
    EXPECT_LE(s.back().t, 10.0 + 1e-9);
    EXPECT_NEAR(s.back().t - s.front().t, 0.7, 1e-9);
    // At most capacity samples were materialized; the fast-forwarded
    // leading intervals (and any ring eviction) count as dropped.
    EXPECT_LE(exported(sampler, "timeseries.samples_taken"), 1u + 8u);
    EXPECT_GE(exported(sampler, "timeseries.samples_dropped"), 92u);
    EXPECT_GE(exported(sampler, "timeseries.samples_taken") +
                  exported(sampler, "timeseries.samples_dropped"),
              101u);
}

TEST(TimeSeries, BurnRateTracksViolationFraction)
{
    obs::TimeSeriesSampler sampler;
    sampler.configure(smallOptions());
    sampler.setEnabled(true);
    sampler.tick(0.0);
    // 100 items in the first second, 2 violations: the violation
    // fraction is 2%, which burns a 1% budget at rate 2.
    for (int i = 0; i < 100; ++i)
        sampler.observeItem(0.0 + i * 0.01, 1e-3, i < 2);
    sampler.tick(1.0);
    std::vector<obs::TimeSeriesSample> s = sampler.samples();
    ASSERT_FALSE(s.empty());
    const obs::TimeSeriesSample &last = s.back();
    EXPECT_EQ(last.items, 100u);
    EXPECT_EQ(last.violations, 2u);
    EXPECT_NEAR(last.burnShort, 2.0, 0.2);
    EXPECT_NEAR(last.burnLong, 2.0, 0.2);

    // A clean second flushes the short window but not the long one.
    for (int i = 0; i < 100; ++i)
        sampler.observeItem(1.0 + i * 0.01, 1e-3, false);
    sampler.tick(2.0);
    const obs::TimeSeriesSample after = sampler.samples().back();
    EXPECT_NEAR(after.burnShort, 0.0, 1e-9);
    EXPECT_GT(after.burnLong, 0.5); // 2/200 over 1% budget = 1.0
}

TEST(TimeSeries, SamplesCarryTelemetrySnapshot)
{
    obs::HwTelemetry telem;
    telem.setEnabled(true);
    obs::TimeSeriesSampler sampler;
    sampler.configure(smallOptions(&telem));
    sampler.setEnabled(true);

    sampler.tick(0.0);
    obs::OpRecord r;
    r.kindName = "FC";
    r.flops = 500.0;
    r.bytesRead = 100.0;
    r.instructions = 1000.0;
    r.dramLines = 4;
    telem.recordOp(r);
    sampler.tick(0.1);

    std::vector<obs::TimeSeriesSample> s = sampler.samples();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s[0].flops, 0.0);
    EXPECT_DOUBLE_EQ(s[1].flops, 500.0);
    EXPECT_EQ(s[1].dramLines, 4u);
    EXPECT_DOUBLE_EQ(s[1].llcMpki, 4.0);
}

TEST(TimeSeries, JsonlHasOneObjectPerSampleWithStableKeys)
{
    obs::TimeSeriesSampler sampler;
    sampler.configure(smallOptions());
    sampler.setEnabled(true);
    sampler.tick(0.0);
    sampler.observeItem(0.05, 1e-3, true);
    sampler.tick(0.2);

    std::string jsonl = sampler.toJsonl();
    std::istringstream lines(jsonl);
    std::string line;
    size_t n = 0;
    while (std::getline(lines, line)) {
        ++n;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        for (const char *key :
             {"\"t_s\"", "\"items\"", "\"violations\"", "\"burn_short\"",
              "\"burn_long\"", "\"flops\"", "\"bytes_read\"",
              "\"bytes_written\"", "\"dram_lines\"", "\"llc_mpki\""})
            EXPECT_NE(line.find(key), std::string::npos)
                << key << " missing from: " << line;
    }
    EXPECT_EQ(n, sampler.size());
}

TEST(TimeSeries, ExportPublishesBurnAndBudgetMetrics)
{
    obs::TimeSeriesSampler sampler;
    sampler.configure(smallOptions());
    sampler.setEnabled(true);
    sampler.tick(0.0);
    for (int i = 0; i < 50; ++i)
        sampler.observeItem(i * 0.01, 1e-3, i == 0);
    sampler.tick(1.0);

    obs::MetricsRegistry reg;
    sampler.exportTo(reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("slo.items"), 50u);
    EXPECT_EQ(snap.counter("slo.violations"), 1u);
    // Every buffered sample was taken; the ring may have evicted more.
    EXPECT_GE(snap.counter("timeseries.samples_taken"), sampler.size());
    // 1/50 violations over a 1% budget: budget consumed at 2x.
    EXPECT_NEAR(snap.gauge("slo.error_budget_consumed"), 2.0, 1e-9);
    EXPECT_GT(snap.gauge("slo.burn_rate_long"), 0.0);
}

TEST(TimeSeries, DisabledTicksObserveNothingAndAreCheap)
{
    obs::TimeSeriesSampler sampler;
    sampler.configure(smallOptions());
    EXPECT_FALSE(sampler.enabled());
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000000; ++i) {
        sampler.tick(i * 1e-4);
        sampler.observeItem(i * 1e-4, 1e-3, false);
    }
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_LT(elapsed, 0.5);
    EXPECT_EQ(sampler.size(), 0u);
    EXPECT_EQ(exported(sampler, "timeseries.samples_taken"), 0u);
}

TEST(TimeSeries, ResetClearsStateButKeepsOptions)
{
    obs::TimeSeriesSampler sampler;
    sampler.configure(smallOptions());
    sampler.setEnabled(true);
    sampler.tick(0.0);
    sampler.tick(0.5);
    ASSERT_GT(sampler.size(), 0u);

    sampler.reset();
    EXPECT_EQ(sampler.size(), 0u);
    EXPECT_EQ(exported(sampler, "timeseries.samples_taken"), 0u);
    // Cadence re-anchors at the next tick with the configured interval.
    sampler.tick(100.0);
    sampler.tick(100.25);
    EXPECT_EQ(sampler.size(), 3u); // 100.0, 100.1, 100.2
}

} // namespace
} // namespace recperf

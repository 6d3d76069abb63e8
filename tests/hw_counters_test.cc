/**
 * @file
 * Tests for the hardware-counter telemetry accumulator (obs::HwTelemetry):
 * per-op and per-kind aggregation, delta-based simcache sampling with
 * warm-up exclusion and shared-hierarchy deduplication, the external
 * reset guard, disabled-path cost, and the counter-event / metrics
 * cross-consistency contract that check_trace.py relies on.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "obs/hw_counters.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "simcache/hierarchy.hh"

namespace recperf {
namespace {

CacheHierarchy
tinyHierarchy(uint32_t cores = 1)
{
    LevelConfig l1{4 * 1024, 4, 4};
    LevelConfig l2{16 * 1024, 8, 12};
    LevelConfig l3{64 * 1024, 16, 40};
    return CacheHierarchy(cores, l1, l2, l3, InclusionPolicy::Inclusive);
}

obs::OpRecord
fcRecord(double seconds, double flops)
{
    obs::OpRecord r;
    r.kindName = "FC";
    r.seconds = seconds;
    r.flops = flops;
    r.bytesRead = 2.0 * flops;
    r.bytesWritten = 0.5 * flops;
    r.instructions = flops / 8.0;
    r.l1Lines = 100;
    r.dramLines = 10;
    return r;
}

TEST(HwTelemetry, RecordOpAggregatesTotalsAndKinds)
{
    obs::HwTelemetry telem;
    telem.setEnabled(true);
    telem.recordOp(fcRecord(1e-3, 1000.0));
    telem.recordOp(fcRecord(2e-3, 3000.0));
    obs::OpRecord sls;
    sls.kindName = "SLS";
    sls.seconds = 5e-3;
    sls.bytesRead = 640.0;
    sls.instructions = 100.0;
    sls.dramLines = 7;
    telem.recordOp(sls);

    obs::HwTotals t = telem.totals();
    EXPECT_DOUBLE_EQ(t.seconds, 8e-3);
    EXPECT_DOUBLE_EQ(t.flops, 4000.0);
    EXPECT_DOUBLE_EQ(t.bytesRead, 8000.0 + 640.0);
    EXPECT_DOUBLE_EQ(t.bytesWritten, 2000.0);
    EXPECT_EQ(t.l1Lines, 200u);
    EXPECT_EQ(t.dramLines, 27u);

    // Per-kind breakdown surfaces through exportTo as gauges.
    obs::MetricsRegistry reg;
    telem.exportTo(reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_NEAR(snap.gauge("hw.op.FC.seconds"), 3e-3, 1e-12);
    EXPECT_NEAR(snap.gauge("hw.op.FC.fraction"), 3.0 / 8.0, 1e-12);
    EXPECT_NEAR(snap.gauge("hw.op.SLS.fraction"), 5.0 / 8.0, 1e-12);
    EXPECT_EQ(snap.counter("hw.flops"), 4000u);
}

TEST(HwTelemetry, IntensityAndMpkiDerivations)
{
    obs::HwTotals t;
    t.flops = 1000.0;
    t.bytesRead = 400.0;
    t.bytesWritten = 100.0;
    t.instructions = 2000.0;
    t.dramLines = 6;
    EXPECT_DOUBLE_EQ(t.intensity(), 2.0);
    EXPECT_DOUBLE_EQ(t.llcMpki(), 3.0);

    obs::HwTotals zero;
    EXPECT_DOUBLE_EQ(zero.intensity(), 0.0); // no div-by-zero
    EXPECT_DOUBLE_EQ(zero.llcMpki(), 0.0);
}

TEST(HwTelemetry, FirstHierarchySampleOnlySetsBaseline)
{
    CacheHierarchy hier = tinyHierarchy();
    // Warm-up traffic that must NOT be counted.
    for (uint64_t i = 0; i < 512; ++i)
        hier.access(0, i * 64);

    obs::HwTelemetry telem;
    telem.setEnabled(true);
    telem.sampleHierarchy(hier); // baseline only
    EXPECT_EQ(telem.totals().cache.l1.accesses, 0u);

    // Measured traffic appears as the delta.
    for (uint64_t i = 0; i < 100; ++i)
        hier.access(0, i * 64);
    telem.sampleHierarchy(hier);
    EXPECT_EQ(telem.totals().cache.l1.accesses, 100u);

    // Sampling again with no traffic adds nothing.
    telem.sampleHierarchy(hier);
    EXPECT_EQ(telem.totals().cache.l1.accesses, 100u);
}

TEST(HwTelemetry, DeltaMatchesHierarchyGroundTruth)
{
    // Acceptance: telemetry's per-level counters must equal the
    // simcache's own stats delta over the measurement window, exactly.
    CacheHierarchy hier = tinyHierarchy(2);
    for (uint64_t i = 0; i < 300; ++i) // warm-up
        hier.access(i % 2, i * 64);

    obs::HwTelemetry telem;
    telem.setEnabled(true);
    telem.sampleHierarchy(hier);
    HierarchyCounters before = hier.counters();

    for (uint64_t i = 0; i < 4096; ++i)
        hier.access(i % 2, (i * 193) % (256 * 1024));
    telem.sampleHierarchy(hier);
    HierarchyCounters after = hier.counters();

    obs::HwTotals t = telem.totals();
    EXPECT_EQ(t.cache.l1.accesses, after.l1.accesses - before.l1.accesses);
    EXPECT_EQ(t.cache.l1.misses, after.l1.misses - before.l1.misses);
    EXPECT_EQ(t.cache.l2.hits, after.l2.hits - before.l2.hits);
    EXPECT_EQ(t.cache.l3.misses, after.l3.misses - before.l3.misses);
    EXPECT_EQ(t.cache.l3.backInvalidations,
              after.l3.backInvalidations - before.l3.backInvalidations);
}

TEST(HwTelemetry, SharedHierarchyCountedOnce)
{
    // Two timers sampling the same hierarchy advance one baseline:
    // interleaved samples never double-count.
    CacheHierarchy hier = tinyHierarchy();
    obs::HwTelemetry telem;
    telem.setEnabled(true);
    telem.sampleHierarchy(hier); // baseline
    for (uint64_t i = 0; i < 50; ++i)
        hier.access(0, i * 64);
    telem.sampleHierarchy(hier); // "timer A"
    telem.sampleHierarchy(hier); // "timer B", same point: delta 0
    EXPECT_EQ(telem.totals().cache.l1.accesses, 50u);
}

TEST(HwTelemetry, ResetDropsBaselinesButKeepsRoofline)
{
    CacheHierarchy hier = tinyHierarchy();
    obs::HwTelemetry telem;
    telem.setEnabled(true);
    obs::RooflineSpec roof{"TestMachine", 100.0, 50.0, 5.0};
    telem.setRoofline(roof);
    telem.sampleHierarchy(hier);
    for (uint64_t i = 0; i < 10; ++i)
        hier.access(0, i * 64);
    telem.sampleHierarchy(hier);
    telem.recordOp(fcRecord(1e-3, 8.0));

    telem.reset();
    EXPECT_EQ(telem.totals().cache.l1.accesses, 0u);
    EXPECT_DOUBLE_EQ(telem.totals().flops, 0.0);
    obs::MetricsRegistry reg;
    telem.exportTo(reg);
    EXPECT_DOUBLE_EQ(reg.snapshot().gauge("hw.machine.peak_gflops"), 100.0);
    EXPECT_DOUBLE_EQ(
        reg.snapshot().gauge("hw.machine.ridge_flops_per_byte"), 2.0);

    // Post-reset, the first sample is again baseline-only.
    telem.sampleHierarchy(hier);
    EXPECT_EQ(telem.totals().cache.l1.accesses, 0u);
}

TEST(HwTelemetry, DisabledSitesAreCheap)
{
    // Off-by-default contract: a disabled site is one relaxed load and
    // a branch; the accumulator never takes its lock.
    obs::HwTelemetry telem;
    EXPECT_FALSE(telem.enabled());
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000000; ++i) {
        if (telem.enabled())
            telem.recordOp(obs::OpRecord{});
    }
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_LT(elapsed, 0.5);
    EXPECT_DOUBLE_EQ(telem.totals().seconds, 0.0);
}

TEST(HwTelemetry, CounterEventsMatchExportedMetrics)
{
    // The final emitted trace value of every track that is also an
    // exported metric must agree with the export -- this is the
    // cross-check check_trace.py performs on real runs.
    obs::HwTelemetry telem;
    telem.setEnabled(true);
    telem.recordOp(fcRecord(1e-3, 12345.0));

    obs::Tracer tracer;
    tracer.setEnabled(true);
    telem.emitCounters(tracer, 0.5, 0);
    tracer.setEnabled(false);

    obs::MetricsRegistry reg;
    telem.exportTo(reg);
    obs::MetricsSnapshot snap = reg.snapshot();

    std::vector<obs::TraceEvent> events = tracer.snapshot();
    ASSERT_FALSE(events.empty());
    size_t checked = 0;
    for (const obs::TraceEvent &ev : events) {
        ASSERT_EQ(ev.ph, 'C');
        EXPECT_LT(ev.tid, obs::Tracer::kWallTidBase);
        ASSERT_EQ(ev.args.size(), 1u) << ev.name;
        EXPECT_EQ(ev.args[0].first, "value");
        if (ev.name == "hw.flops") {
            EXPECT_DOUBLE_EQ(std::stod(ev.args[0].second), 12345.0);
            EXPECT_EQ(snap.counter("hw.flops"), 12345u);
            ++checked;
        }
    }
    EXPECT_EQ(checked, 1u);
}

TEST(HwTelemetry, EmitCountersRespectsDisabledTracer)
{
    obs::HwTelemetry telem;
    telem.setEnabled(true);
    telem.recordOp(fcRecord(1e-3, 8.0));
    obs::Tracer tracer; // disabled
    telem.emitCounters(tracer, 0.5, 0);
    EXPECT_TRUE(tracer.snapshot().empty());
}

} // namespace
} // namespace recperf

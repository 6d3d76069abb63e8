#include "obs/hw_counters.hh"

namespace recperf {
namespace obs {

namespace {

constexpr double kLineBytes = 64.0;

/**
 * Delta of one level's cumulative stats vs. its baseline. A caller
 * resetting the hierarchy's stats mid-run makes the cumulative view go
 * backwards; treat the post-reset value as the whole delta instead of
 * producing wrapped-around garbage.
 */
CacheStats
statsDelta(const CacheStats &cur, const CacheStats &base)
{
    if (cur.accesses < base.accesses)
        return cur;
    CacheStats d;
    d.accesses = cur.accesses - base.accesses;
    d.hits = cur.hits - base.hits;
    d.misses = cur.misses - base.misses;
    d.evictions = cur.evictions - base.evictions;
    d.backInvalidations = cur.backInvalidations - base.backInvalidations;
    return d;
}

double
mpki(uint64_t misses, double instructions)
{
    return instructions > 0.0
        ? static_cast<double>(misses) / (instructions / 1000.0) : 0.0;
}

} // namespace

HwTelemetry &
HwTelemetry::global()
{
    static HwTelemetry *telemetry = new HwTelemetry();
    return *telemetry;
}

void
HwTelemetry::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
HwTelemetry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    totals_ = HwTotals();
    by_kind_.clear();
    baselines_.clear();
}

void
HwTelemetry::setRoofline(const RooflineSpec &roofline)
{
    std::lock_guard<std::mutex> lock(mu_);
    roofline_ = roofline;
}

void
HwTelemetry::recordOp(const OpRecord &record)
{
    std::lock_guard<std::mutex> lock(mu_);
    totals_.seconds += record.seconds;
    totals_.flops += record.flops;
    totals_.bytesRead += record.bytesRead;
    totals_.bytesWritten += record.bytesWritten;
    totals_.instructions += record.instructions;
    totals_.l1Lines += record.l1Lines;
    totals_.l2Lines += record.l2Lines;
    totals_.l3Lines += record.l3Lines;
    totals_.dramLines += record.dramLines;
    totals_.offloadSeconds += record.offloadSeconds;
    totals_.transferBytes += record.transferBytes;

    KindAgg &agg = by_kind_[record.kindName];
    agg.seconds += record.seconds;
    agg.flops += record.flops;
    agg.bytesRead += record.bytesRead;
    agg.bytesWritten += record.bytesWritten;
    agg.offloadSeconds += record.offloadSeconds;
    agg.transferBytes += record.transferBytes;
    ++agg.invocations;
}

void
HwTelemetry::sampleHierarchy(const CacheHierarchy &hier)
{
    HierarchyCounters cur = hier.counters();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = baselines_.find(&hier);
    if (it != baselines_.end()) {
        totals_.cache.l1 += statsDelta(cur.l1, it->second.l1);
        totals_.cache.l2 += statsDelta(cur.l2, it->second.l2);
        totals_.cache.l3 += statsDelta(cur.l3, it->second.l3);
        it->second = cur;
    } else {
        // First sight of this hierarchy: baseline only, so pre-window
        // (constructor warm-up) activity never leaks into the totals.
        baselines_.emplace(&hier, cur);
    }
}

HwTotals
HwTelemetry::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
}

void
HwTelemetry::emitCounters(Tracer &tracer, double t_seconds,
                          uint32_t tid) const
{
    if (!tracer.enabled())
        return;
    HwTotals t = totals();
    // Track names must equal the exported metric names: check_trace.py
    // cross-checks each track's final value against the metrics file.
    tracer.counter("hw", "hw.flops", t_seconds, tid, t.flops);
    tracer.counter("hw", "hw.bytes_read", t_seconds, tid, t.bytesRead);
    tracer.counter("hw", "hw.bytes_written", t_seconds, tid,
                   t.bytesWritten);
    tracer.counter("hw", "hw.lines.dram", t_seconds, tid,
                   static_cast<double>(t.dramLines));
    tracer.counter("hw", "hw.llc_mpki", t_seconds, tid, t.llcMpki());
    tracer.counter("hw", "simcache.l3.misses", t_seconds, tid,
                   static_cast<double>(t.cache.l3.misses));
}

void
HwTelemetry::exportTo(MetricsRegistry &registry) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const HwTotals &t = totals_;

    auto count = [&](const char *name, double v) {
        registry.counter(name).add(static_cast<uint64_t>(v));
    };
    count("hw.flops", t.flops);
    count("hw.bytes_read", t.bytesRead);
    count("hw.bytes_written", t.bytesWritten);
    count("hw.instructions", t.instructions);
    registry.counter("hw.lines.l1").add(t.l1Lines);
    registry.counter("hw.lines.l2").add(t.l2Lines);
    registry.counter("hw.lines.l3").add(t.l3Lines);
    registry.counter("hw.lines.dram").add(t.dramLines);

    struct LevelRow
    {
        const char *name;
        const CacheStats *stats;
    };
    const LevelRow levels[] = {{"l1", &t.cache.l1},
                               {"l2", &t.cache.l2},
                               {"l3", &t.cache.l3}};
    for (const LevelRow &lvl : levels) {
        std::string prefix = std::string("simcache.") + lvl.name;
        registry.counter(prefix + ".accesses").add(lvl.stats->accesses);
        registry.counter(prefix + ".hits").add(lvl.stats->hits);
        registry.counter(prefix + ".misses").add(lvl.stats->misses);
        registry.counter(prefix + ".back_invalidations")
            .add(lvl.stats->backInvalidations);
        registry.gauge(prefix + ".mpki")
            .set(mpki(lvl.stats->misses, t.instructions));
    }

    registry.gauge("hw.seconds").set(t.seconds);
    registry.gauge("hw.llc_mpki").set(t.llcMpki());
    registry.gauge("hw.arithmetic_intensity").set(t.intensity());
    registry.gauge("hw.achieved_gflops")
        .set(t.seconds > 0.0 ? t.flops / t.seconds / 1e9 : 0.0);
    double dram_bytes_per_s = t.seconds > 0.0
        ? static_cast<double>(t.dramLines) * kLineBytes / t.seconds : 0.0;
    registry.gauge("hw.dram_bandwidth_utilization")
        .set(roofline_.streamGBps > 0.0
                 ? dram_bytes_per_s / (roofline_.streamGBps * 1e9)
                 : 0.0);

    // Offload metrics exist only when an offload backend ran: host-only
    // runs stay byte-identical to the pre-backend metric files.
    if (t.offloadSeconds > 0.0 || t.transferBytes > 0) {
        registry.gauge("hw.offload_seconds").set(t.offloadSeconds);
        registry.counter("hw.transfer_bytes").add(t.transferBytes);
    }

    for (const auto &[kind, agg] : by_kind_) {
        std::string prefix = "hw.op." + kind;
        registry.gauge(prefix + ".seconds").set(agg.seconds);
        registry.gauge(prefix + ".fraction")
            .set(t.seconds > 0.0 ? agg.seconds / t.seconds : 0.0);
        registry.gauge(prefix + ".flops").set(agg.flops);
        registry.gauge(prefix + ".bytes")
            .set(agg.bytesRead + agg.bytesWritten);
        registry.gauge(prefix + ".gflops")
            .set(agg.seconds > 0.0 ? agg.flops / agg.seconds / 1e9 : 0.0);
        double bytes = agg.bytesRead + agg.bytesWritten;
        registry.gauge(prefix + ".intensity")
            .set(bytes > 0.0 ? agg.flops / bytes : 0.0);
        if (agg.offloadSeconds > 0.0 || agg.transferBytes > 0) {
            registry.gauge(prefix + ".offload_seconds")
                .set(agg.offloadSeconds);
            registry.counter(prefix + ".transfer_bytes")
                .add(agg.transferBytes);
        }
    }

    registry.gauge("hw.machine.peak_gflops").set(roofline_.peakGflops);
    registry.gauge("hw.machine.stream_gbps").set(roofline_.streamGBps);
    registry.gauge("hw.machine.gather_gbps").set(roofline_.gatherGBps);
    registry.gauge("hw.machine.ridge_flops_per_byte")
        .set(roofline_.ridge());
}

} // namespace obs
} // namespace recperf

/**
 * @file
 * Hardware-model performance-counter telemetry.
 *
 * The paper's evidence is hardware-level characterization: per-level
 * cache MPKI and bandwidth pressure for the embedding-dominated models
 * (Fig 5, Takeaway 3), FLOP-bound FC stacks for RMC3 (Fig 2), and the
 * operator cycle breakdown (Fig 4/7). HwTelemetry is the single
 * accumulation point those model counters flow through during a run:
 *
 *  - the timing layer records, per operator invocation, modeled
 *    seconds, FLOPs, bytes moved, instructions, and per-level cache
 *    lines (recordTelemetry in timing/op_timing.hh);
 *  - the simcache hierarchy is sampled for ground-truth per-level
 *    hits/misses/back-invalidations (delta-accumulated, so shared
 *    co-location hierarchies are counted once);
 *  - the machine spec contributes the roofline envelope (peak GFLOP/s,
 *    stream/gather bandwidth, ridge intensity).
 *
 * At the end of a run exportTo() publishes everything as interned
 * counters/gauges in a MetricsRegistry; during a run emitCounters()
 * emits Chrome-trace counter events ("ph":"C") on the virtual-time
 * lanes, so counter traces are bit-identical across host thread counts
 * exactly like the span traces.
 *
 * Telemetry is off by default; every emission site first checks one
 * relaxed atomic flag (same contract as Tracer). The accumulators are
 * mutex-protected: recording happens once per simulated operator, not
 * per tensor element, so the lock is nowhere near a hot path.
 */

#ifndef RECPERF_OBS_HW_COUNTERS_HH
#define RECPERF_OBS_HW_COUNTERS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "simcache/hierarchy.hh"

namespace recperf {
namespace obs {

/** One operator invocation's worth of modeled hardware counters. */
struct OpRecord
{
    /** Display name of the operator kind ("FC", "SLS", ...). */
    std::string kindName;

    double seconds = 0.0;      ///< modeled latency
    double flops = 0.0;        ///< arithmetic work
    double bytesRead = 0.0;    ///< algorithmic read traffic
    double bytesWritten = 0.0; ///< algorithmic write traffic
    double instructions = 0.0; ///< estimated dynamic instructions

    uint64_t l1Lines = 0;   ///< cache lines serviced by L1
    uint64_t l2Lines = 0;   ///< cache lines serviced by L2
    uint64_t l3Lines = 0;   ///< cache lines serviced by the LLC
    uint64_t dramLines = 0; ///< cache lines serviced by DRAM

    double offloadSeconds = 0.0;  ///< near-memory engine time
    uint64_t transferBytes = 0;   ///< host<->engine link traffic
};

/** The machine's roofline envelope (Table II derived). */
struct RooflineSpec
{
    std::string machine;      ///< spec name, e.g. "Broadwell"
    double peakGflops = 0.0;  ///< single-core compute roof
    double streamGBps = 0.0;  ///< sequential-stream DRAM roof
    double gatherGBps = 0.0;  ///< random-gather DRAM roof

    /** FLOPs/byte where the compute and stream roofs intersect. */
    double ridge() const
    {
        return streamGBps > 0.0 ? peakGflops / streamGBps : 0.0;
    }
};

/** Point-in-time totals of everything recorded since the last reset. */
struct HwTotals
{
    double seconds = 0.0;
    double flops = 0.0;
    double bytesRead = 0.0;
    double bytesWritten = 0.0;
    double instructions = 0.0;
    uint64_t l1Lines = 0;
    uint64_t l2Lines = 0;
    uint64_t l3Lines = 0;
    uint64_t dramLines = 0;

    /** Offload-engine time and link traffic (zero on host-only runs). */
    double offloadSeconds = 0.0;
    uint64_t transferBytes = 0;

    /** Ground-truth simcache per-level statistics (delta-accumulated). */
    HierarchyCounters cache;

    /** FLOPs per byte moved (reads + writes). */
    double intensity() const
    {
        double bytes = bytesRead + bytesWritten;
        return bytes > 0.0 ? flops / bytes : 0.0;
    }

    /** Modeled DRAM lines per kilo-instruction. */
    double llcMpki() const
    {
        return instructions > 0.0
            ? static_cast<double>(dramLines) / (instructions / 1000.0)
            : 0.0;
    }
};

/**
 * Process-wide hardware-counter accumulator. Use global() everywhere;
 * tests may construct private instances.
 */
class HwTelemetry
{
  public:
    HwTelemetry() = default;
    HwTelemetry(const HwTelemetry &) = delete;
    HwTelemetry &operator=(const HwTelemetry &) = delete;

    static HwTelemetry &global();

    /** Turn collection on or off (off keeps accumulated state). */
    void setEnabled(bool on);

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Zero every accumulator and drop all hierarchy baselines. */
    void reset();

    /** Record the machine envelope (idempotent; last writer wins). */
    void setRoofline(const RooflineSpec &roofline);

    /** Accumulate one operator invocation. */
    void recordOp(const OpRecord &record);

    /**
     * Accumulate the delta of @p hier's statistics since this
     * hierarchy was last sampled. The first sample of a hierarchy (or
     * the first after reset()) only establishes the baseline, so
     * warm-up activity before the measurement window is excluded.
     * Several timers sharing one hierarchy advance the same baseline,
     * so shared co-location traffic is counted exactly once.
     */
    void sampleHierarchy(const CacheHierarchy &hier);

    /** Current totals (thread-safe copy). */
    HwTotals totals() const;

    /**
     * Emit the cumulative counters as Chrome-trace counter events
     * ("ph":"C") at virtual time @p t_seconds on lane @p tid. Track
     * names match the exported metric names, so check_trace.py can
     * cross-check the final trace value against the metrics file.
     * No-op when the tracer is disabled.
     */
    void emitCounters(Tracer &tracer, double t_seconds,
                      uint32_t tid) const;

    /**
     * Publish everything into @p registry: hw.* counters (FLOPs,
     * bytes, instructions, per-level lines), simcache.<level>.*
     * counters (accesses/hits/misses/back-invalidations), per-kind
     * hw.op.<Kind>.* gauges (seconds/fraction/flops/bytes/gflops/
     * intensity), per-level MPKI gauges, and the machine roofline
     * gauges (hw.machine.*).
     */
    void exportTo(MetricsRegistry &registry) const;

  private:
    /** Per-operator-kind aggregation for the Fig 4/7 breakdown. */
    struct KindAgg
    {
        double seconds = 0.0;
        double flops = 0.0;
        double bytesRead = 0.0;
        double bytesWritten = 0.0;
        double offloadSeconds = 0.0;
        uint64_t transferBytes = 0;
        uint64_t invocations = 0;
    };

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    HwTotals totals_;
    std::map<std::string, KindAgg> by_kind_;
    /** Last-seen cumulative stats per hierarchy (delta baseline). */
    std::map<const CacheHierarchy *, HierarchyCounters> baselines_;
    RooflineSpec roofline_;
};

} // namespace obs
} // namespace recperf

#endif // RECPERF_OBS_HW_COUNTERS_HH

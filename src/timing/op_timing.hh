/**
 * @file
 * Timing results for operators and whole-model inferences.
 */

#ifndef RECPERF_TIMING_OP_TIMING_HH
#define RECPERF_TIMING_OP_TIMING_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "ops/op_cost.hh"

namespace recperf {

namespace obs {
class HwTelemetry;
} // namespace obs

/** Timing and memory-behaviour record for one operator invocation. */
struct OpTiming
{
    OpKind kind = OpKind::Other;
    std::string name;

    double seconds = 0.0;          ///< total modeled latency
    double computeSeconds = 0.0;   ///< arithmetic-bound component
    double memorySeconds = 0.0;    ///< memory-bound component
    double dispatchSeconds = 0.0;  ///< fixed framework overhead

    /**
     * Time spent on a near-memory/offload engine (zero for host-only
     * backends). Offloaded work never touches the host hierarchy, so
     * these seconds sit outside the DRAM roofline ceiling.
     */
    double offloadSeconds = 0.0;

    /** Host<->engine link traffic (command upload + result download). */
    uint64_t transferBytes = 0;

    /** Estimated dynamic instructions (for MPKI metrics). */
    double instructions = 0.0;

    /**
     * Algorithmic work: FLOPs executed and bytes moved (before cache
     * filtering). Feeds the arithmetic-intensity / roofline telemetry.
     */
    OpCost cost;

    /** Cache lines serviced per level (SLS uses the real simulator). */
    uint64_t l1Lines = 0;
    uint64_t l2Lines = 0;
    uint64_t l3Lines = 0;
    uint64_t dramLines = 0;
};

/** End-to-end timing of one model inference. */
struct ModelTiming
{
    std::vector<OpTiming> ops;

    /** Sum of per-op latencies (single-threaded execution, as in §IV). */
    double totalSeconds() const;

    /** Latency attributed to a given operator kind. */
    double secondsByKind(OpKind kind) const;

    /** Fraction of total latency in a given operator kind (Fig 7). */
    double fractionByKind(OpKind kind) const;

    /** Latency per operator kind. */
    std::map<OpKind, double> breakdown() const;

    /** Total estimated instructions. */
    double instructions() const;

    /** LLC misses (lines serviced by DRAM) per kilo-instruction. */
    double llcMpki() const;

    /** DRAM lines touched. */
    uint64_t dramLines() const;

    /** Merge another inference's records (for aggregation). */
    void accumulate(const ModelTiming &other);

    /** Divide all time/instruction quantities by @p n (averaging). */
    void scale(double inv_n);
};

/**
 * Emit one virtual-time trace span per operator of @p timing, tiling
 * [t0, t0 + scale * totalSeconds] on lane @p tid in execution order
 * (category "op", args carrying the operator kind). @p scale stretches
 * each op's modeled latency by the same factor the caller applied to
 * the total (serving-layer jitter), so the children exactly tile the
 * parent span. Returns the end timestamp. No-op (returning the end
 * timestamp) when tracing is disabled.
 */
double emitOpSpans(obs::Tracer &tracer, const ModelTiming &timing,
                   double t0, uint32_t tid, double scale = 1.0);

struct MachineSpec;

/**
 * Push one inference's hardware-model counters into @p telemetry: the
 * machine's roofline envelope (peak GFLOP/s, stream/gather bandwidth)
 * plus, per operator, modeled seconds, FLOPs, bytes moved,
 * instructions, and per-level cache lines. Callers gate on
 * HwTelemetry::enabled() so the disabled path stays one relaxed load.
 */
void recordTelemetry(obs::HwTelemetry &telemetry,
                     const MachineSpec &machine,
                     const ModelTiming &timing);

} // namespace recperf

#endif // RECPERF_TIMING_OP_TIMING_HH

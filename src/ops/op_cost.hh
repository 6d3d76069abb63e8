/**
 * @file
 * Static work accounting for operators.
 *
 * Every operator reports the arithmetic work and memory traffic a single
 * invocation performs. This is the input to the roofline side of the
 * timing model and to the FLOPs-vs-bytes characterization (Fig 2 and
 * Fig 5 in the paper).
 */

#ifndef RECPERF_OPS_OP_COST_HH
#define RECPERF_OPS_OP_COST_HH

#include <string>

namespace recperf {

/** Operator kinds tracked by the fleet-wide cycle breakdown (Fig 4). */
enum class OpKind
{
    FC,          ///< fully-connected / GEMM
    SLS,         ///< SparseLengthsSum (embedding lookup + pooled sum)
    Concat,      ///< feature concatenation
    BatchMM,     ///< batched matrix multiply (feature interaction)
    Activation,  ///< ReLU / sigmoid element-wise
    Conv,        ///< convolution (proxy models only)
    Recurrent,   ///< recurrent cell (proxy models only)
    Other,       ///< anything else
};

/** Short display name, e.g. "FC" or "SLS". */
const char *opKindName(OpKind kind);

/**
 * Arithmetic and memory-traffic totals for one operator invocation.
 * bytesRead counts algorithmic reads (parameters + inputs), i.e. traffic
 * before any cache filtering; the cache simulator decides how much of it
 * reaches DRAM.
 */
struct OpCost
{
    double flops = 0.0;
    double bytesRead = 0.0;
    double bytesWritten = 0.0;

    OpCost &operator+=(const OpCost &o);

    /** FLOPs per byte read — the paper's operational intensity metric. */
    double intensity() const;
};

} // namespace recperf

#endif // RECPERF_OPS_OP_COST_HH

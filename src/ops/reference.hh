/**
 * @file
 * Naive reference implementations for correctness testing.
 *
 * These are deliberately straightforward triple loops with no blocking
 * so the optimized kernels can be validated against them.
 */

#ifndef RECPERF_OPS_REFERENCE_HH
#define RECPERF_OPS_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace recperf {
namespace reference {

/** Naive Y = X * W^T + b; x: [batch, in], w: [out, in], b: [out]. */
Tensor fullyConnected(const Tensor &x, const Tensor &w, const Tensor &b);

/** Naive pooled embedding lookup (sum reduction). */
Tensor sparseLengthsSum(const Tensor &table, const std::vector<int64_t> &ids,
                        const std::vector<int64_t> &lengths);

} // namespace reference
} // namespace recperf

#endif // RECPERF_OPS_REFERENCE_HH

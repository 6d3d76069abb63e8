/**
 * @file
 * Element-wise activations and tensor concatenation.
 */

#ifndef RECPERF_OPS_ELEMENTWISE_HH
#define RECPERF_OPS_ELEMENTWISE_HH

#include <vector>

#include "ops/op_cost.hh"
#include "tensor/tensor.hh"

namespace recperf {

/** ReLU applied in place. */
void reluInplace(Tensor &x);

/** Logistic sigmoid applied out-of-place (the CTR output, Fig 3). */
Tensor sigmoid(const Tensor &x);

/** Work accounting for an element-wise op over @p elements values. */
OpCost elementwiseCost(int64_t elements);

/**
 * Concatenate rank-2 tensors along dim 1 (the feature axis). All inputs
 * must share dim 0. This is the Concat operator that merges the
 * Bottom-FC output with the pooled embedding vectors (Fig 3).
 */
Tensor concatCols(const std::vector<const Tensor *> &inputs);

/** Work accounting for concatenating @p total_elements values. */
OpCost concatCost(int64_t total_elements);

} // namespace recperf

#endif // RECPERF_OPS_ELEMENTWISE_HH

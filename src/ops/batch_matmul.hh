/**
 * @file
 * Pairwise dot-product feature interaction.
 *
 * DLRM-style models interact the pooled embedding vectors and the
 * Bottom-FC output by stacking them into Z of shape [batch, f, d] and
 * computing Z * Z^T per batch element; the paper's operator breakdowns
 * report this as BatchMatMul.
 */

#ifndef RECPERF_OPS_BATCH_MATMUL_HH
#define RECPERF_OPS_BATCH_MATMUL_HH

#include "tensor/tensor.hh"

namespace recperf {

/**
 * Pairwise dot-product interaction: given features [batch, f, d],
 * return the strictly-lower-triangular entries of Z * Z^T flattened to
 * [batch, f*(f-1)/2]. This is DLRM's "dot" interaction.
 */
Tensor dotInteraction(const Tensor &features);

} // namespace recperf

#endif // RECPERF_OPS_BATCH_MATMUL_HH

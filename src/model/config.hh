/**
 * @file
 * Architecture description of a recommendation model (Fig 3 / Fig 13).
 *
 * A config captures exactly the tunable parameters the paper's
 * open-source benchmark exposes (Section VII-A): number of embedding
 * tables, their input (rows) and output (embedding) dimensions, sparse
 * lookups per table, and the depth/width of the Bottom- and Top-MLPs.
 * Configs drive both the functional model (tensor execution) and the
 * timing model (shape-only cost estimation), so paper-scale configs
 * with multi-GB tables never need to be allocated to be characterized.
 */

#ifndef RECPERF_MODEL_CONFIG_HH
#define RECPERF_MODEL_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ops/op_cost.hh"

namespace recperf {

/** The three production model classes plus baselines (Section III). */
enum class ModelClass
{
    RMC1, ///< filtering: small FCs, few small embedding tables
    RMC2, ///< ranking: many embedding tables (memory-intensive)
    RMC3, ///< ranking: large FCs (compute-intensive)
    NCF,  ///< MLPerf neural collaborative filtering baseline
    Other,
};

/** Display name, e.g. "RMC2". */
const char *modelClassName(ModelClass c);

/**
 * How the pooled embeddings and the Bottom-FC output are combined
 * before the Top-FC stack (Fig 3's "+" node).
 */
enum class InteractionKind
{
    /** Plain feature concatenation (the Fig 3 default). */
    Concat,
    /**
     * DLRM-style pairwise dot products via batched matrix multiply —
     * the BatchMatMul operator that dominates RMC3 alongside FC (§V).
     * Requires bottomOutDim() == emb.embDim.
     */
    Dot,
};

/**
 * Storage precision of the embedding tables. Lower precisions shrink
 * both capacity and the cache lines touched per gather — the
 * compression lever the paper's §VIII points at.
 */
enum class EmbPrecision
{
    Fp32, ///< 4 B/element (production default, §IV)
    Fp16, ///< 2 B/element
    Int8, ///< 1 B/element + 8 B/row fused scale/bias
};

/** Display name, e.g. "int8". */
const char *embPrecisionName(EmbPrecision precision);

/** Embedding-table block of a model. */
struct EmbeddingConfig
{
    EmbeddingConfig() = default;

    EmbeddingConfig(int64_t tables, int64_t rows, int64_t dim,
                    int64_t lookups,
                    EmbPrecision prec = EmbPrecision::Fp32)
        : numTables(tables), rowsPerTable(rows), embDim(dim),
          lookupsPerTable(lookups), precision(prec)
    {
    }

    int64_t numTables = 0;
    int64_t rowsPerTable = 0;
    int64_t embDim = 0;
    int64_t lookupsPerTable = 0; ///< sparse IDs pooled per sample
    EmbPrecision precision = EmbPrecision::Fp32;

    /**
     * Optional per-table row counts. Production models mix tables
     * spanning tens of MB to GBs (Section II-C); when non-empty this
     * overrides rowsPerTable and its size must equal numTables.
     */
    std::vector<int64_t> tableRows;

    /** Row count of table @p index (honoring the override). */
    int64_t rowsOf(int64_t index) const;

    /** Sum of rows across all tables. */
    int64_t totalRows() const;

    /** Stored bytes per embedding row at the configured precision. */
    int64_t rowBytes() const;
};

/** Full architecture of one recommendation model. */
struct ModelConfig
{
    std::string name;
    ModelClass modelClass = ModelClass::Other;

    /** Width of the dense-feature input vector. */
    int64_t denseFeatures = 0;

    /**
     * Output widths of the Bottom-FC stack; the input of layer i is
     * denseFeatures (i==0) or bottomMlp[i-1]. Empty when the model has
     * no dense inputs (e.g. NCF).
     */
    std::vector<int64_t> bottomMlp;

    EmbeddingConfig emb;

    /** Feature-combination operator ahead of the Top-FC stack. */
    InteractionKind interaction = InteractionKind::Concat;

    /**
     * Output widths of the Top-FC stack; its input is the interaction
     * of the Bottom-FC output and all pooled embeddings (see
     * topInputDim()). The final width must be 1 (the predicted CTR).
     */
    std::vector<int64_t> topMlp;

    /** Panics on an inconsistent configuration. */
    void validate() const;

    /** Width of the Bottom-FC output (0 when there is no bottom MLP). */
    int64_t bottomOutDim() const;

    /**
     * Number of interacting feature vectors (pooled tables plus the
     * Bottom-FC output when present).
     */
    int64_t featureCount() const;

    /**
     * Input width of the Top-FC stack: for Concat, the features laid
     * side by side; for Dot, the f*(f-1)/2 pairwise products plus the
     * Bottom-FC output (DLRM convention).
     */
    int64_t topInputDim() const;

    /** FC parameters (weights + biases) across both MLP stacks. */
    int64_t fcParamCount() const;

    /** Embedding storage at fp32. */
    int64_t embStorageBytes() const;

    /** Total sparse IDs gathered per sample. */
    int64_t lookupsPerSample() const;

    /**
     * Aggregate arithmetic/traffic cost of one batched inference
     * (Fig 2's FLOPs and bytes-read axes).
     */
    OpCost inferenceCost(int64_t batch) const;

    /**
     * A functionally-equivalent config with embedding rows capped at
     * @p max_rows, for allocatable tensor execution in tests/examples.
     * Timing characterization always uses the original config.
     */
    ModelConfig functionalScale(int64_t max_rows = 4096) const;
};

} // namespace recperf

#endif // RECPERF_MODEL_CONFIG_HH

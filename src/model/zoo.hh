/**
 * @file
 * The production-representative model zoo (Table I).
 *
 * Concrete dimensions are chosen to satisfy every quantitative anchor
 * the paper gives for the three model classes:
 *  - embedding output dimension between 24 and 40 (we use 32);
 *  - aggregate embedding storage ~100 MB (RMC1), ~10 GB (RMC2),
 *    ~1 GB (RMC3) at fp32 (Section III-B);
 *  - tables per model between 4 and 40; RMC2 has ~10x more than
 *    RMC1/RMC3;
 *  - RMC1/RMC2 pool ~4x more sparse IDs per table than RMC3;
 *  - RMC3's Bottom-FC is much wider (more dense features);
 *  - the RMC1 example of Section VII-A (5 tables, 1e5 rows, dim 32,
 *    80 lookups, Bottom 128-64-32, Top 128-32-1) sits between our
 *    small and large RMC1 variants.
 */

#ifndef RECPERF_MODEL_ZOO_HH
#define RECPERF_MODEL_ZOO_HH

#include <vector>

#include "model/config.hh"

namespace recperf {

/** Small RMC1: lightweight filtering model, ~100 MB of tables. */
ModelConfig rmc1Small();

/** Large RMC1: more tables and wider FCs (2x latency of small, §V). */
ModelConfig rmc1Large();

/** Small RMC2: many embedding tables, ~8 GB of tables. */
ModelConfig rmc2Small();

/** Large RMC2: 40 tables, ~13 GB of tables. */
ModelConfig rmc2Large();

/** Small RMC3: compute-intensive ranking model, wide Bottom-FC. */
ModelConfig rmc3Small();

/** Large RMC3: wider still, ~2.6 GB of tables. */
ModelConfig rmc3Large();

/**
 * RMC3 variant using DLRM's pairwise dot-product interaction, whose
 * runtime is split between FC and BatchMatMul — the operator mix the
 * paper reports for the heavyweight ranking models ("over 96% of the
 * time in BatchMatMul or FC", Section V).
 */
ModelConfig rmc3Dot();

/** Representative (small) instance of each class, Table I order. */
std::vector<ModelConfig> representativeModels();

/** All six zoo entries. */
std::vector<ModelConfig> allZooModels();

/** The Section VII-A example RMC1 configuration, verbatim. */
ModelConfig rmc1PaperExample();

/**
 * MLPerf-NCF (NeuMF on MovieLens-20m) in ModelConfig form, the timing
 * model's comparator for Fig 12.
 */
ModelConfig ncfConfig();

} // namespace recperf

#endif // RECPERF_MODEL_ZOO_HH

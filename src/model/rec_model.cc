#include "model/rec_model.hh"

#include "core/logging.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "ops/batch_matmul.hh"
#include "ops/elementwise.hh"

namespace recperf {

RecModel::RecModel(const ModelConfig &config, Rng &rng) : config_(config)
{
    config_.validate();

    int64_t in = config_.denseFeatures;
    for (int64_t out : config_.bottomMlp) {
        bottom_.emplace_back(in, out, rng);
        in = out;
    }
    for (int64_t t = 0; t < config_.emb.numTables; ++t) {
        tables_.emplace_back(config_.emb.rowsOf(t), config_.emb.embDim,
                             rng);
    }
    in = config_.topInputDim();
    for (int64_t out : config_.topMlp) {
        top_.emplace_back(in, out, rng);
        in = out;
    }
}

Tensor
RecModel::forward(const ModelInput &input) const
{
    int64_t batch = 0;
    Tensor bottom_out;

    if (!bottom_.empty()) {
        RP_ASSERT(input.dense.rank() == 2 &&
                  input.dense.dim(1) == config_.denseFeatures,
                  "%s: dense input shape %s does not match %lld features",
                  config_.name.c_str(),
                  shapeToString(input.dense.shape()).c_str(),
                  static_cast<long long>(config_.denseFeatures));
        batch = input.dense.dim(0);
        bottom_out = input.dense.reshaped(input.dense.shape());
        for (const FullyConnected &fc : bottom_) {
            bottom_out = fc.forward(bottom_out);
            reluInplace(bottom_out);
        }
    }

    RP_ASSERT(static_cast<int64_t>(input.sparse.size()) ==
              config_.emb.numTables,
              "%s: expected %lld sparse inputs, got %zu",
              config_.name.c_str(),
              static_cast<long long>(config_.emb.numTables),
              input.sparse.size());

    // Validate shapes up front, then fan the independent per-table
    // lookups across the pool (inter-op parallelism — the RMC2 tables
    // are the embedding fan-out the paper identifies as the
    // memory-bound hot path). Each table's pooled gather runs the
    // serial kernel inline, so outputs match the sequential loop
    // bitwise.
    int64_t num_tables = static_cast<int64_t>(input.sparse.size());
    for (int64_t t = 0; t < num_tables; ++t) {
        const SparseInput &sp = input.sparse[static_cast<size_t>(t)];
        if (batch == 0)
            batch = static_cast<int64_t>(sp.lengths.size());
        RP_ASSERT(static_cast<int64_t>(sp.lengths.size()) == batch,
                  "%s: table %lld batch mismatch", config_.name.c_str(),
                  static_cast<long long>(t));
    }
    std::vector<Tensor> pooled(static_cast<size_t>(num_tables));
    if (num_tables >= globalThreadCount()) {
        parallelFor(0, num_tables, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t t = lo; t < hi; ++t) {
                const SparseInput &sp =
                    input.sparse[static_cast<size_t>(t)];
                pooled[static_cast<size_t>(t)] =
                    tables_[static_cast<size_t>(t)].forward(sp.ids,
                                                            sp.lengths);
            }
        });
    } else {
        // Fewer tables than threads: run tables sequentially and let
        // each lookup parallelize across its output slots instead.
        for (int64_t t = 0; t < num_tables; ++t) {
            const SparseInput &sp =
                input.sparse[static_cast<size_t>(t)];
            pooled[static_cast<size_t>(t)] =
                tables_[static_cast<size_t>(t)].forward(sp.ids,
                                                        sp.lengths);
        }
    }

    std::vector<const Tensor *> features;
    if (!bottom_.empty())
        features.push_back(&bottom_out);
    for (const Tensor &p : pooled)
        features.push_back(&p);

    Tensor z;
    if (config_.interaction == InteractionKind::Dot) {
        // Stack the feature vectors into [batch, f, d], take all
        // pairwise dot products, and append the Bottom-FC output
        // (DLRM's "dot" interaction).
        int64_t f = static_cast<int64_t>(features.size());
        int64_t d = config_.emb.embDim;
        Tensor stacked = concatCols(features).reshaped({batch, f, d});
        Tensor pairs = dotInteraction(stacked);
        if (!bottom_.empty())
            z = concatCols({&pairs, &bottom_out});
        else
            z = std::move(pairs);
    } else {
        z = concatCols(features);
    }

    for (size_t i = 0; i < top_.size(); ++i) {
        z = top_[i].forward(z);
        if (i + 1 < top_.size())
            reluInplace(z);
    }
    return sigmoid(z);
}

ModelInput
RecModel::randomInput(int64_t batch, Rng &rng) const
{
    RP_ASSERT(batch > 0, "batch must be positive");
    ModelInput input;
    if (config_.denseFeatures > 0) {
        input.dense = Tensor({batch, config_.denseFeatures});
        input.dense.fillUniform(rng, -1.0f, 1.0f);
    } else {
        input.dense = Tensor({batch, 0});
    }
    for (int64_t t = 0; t < config_.emb.numTables; ++t) {
        SparseInput sp;
        sp.lengths.assign(static_cast<size_t>(batch),
                          config_.emb.lookupsPerTable);
        for (int64_t i = 0; i < batch * config_.emb.lookupsPerTable; ++i) {
            sp.ids.push_back(static_cast<int64_t>(
                rng.nextBelow(static_cast<uint64_t>(
                    config_.emb.rowsOf(t)))));
        }
        input.sparse.push_back(std::move(sp));
    }
    return input;
}

} // namespace recperf

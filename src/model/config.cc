#include "model/config.hh"

#include <algorithm>

#include "core/logging.hh"
#include "ops/elementwise.hh"
#include "ops/fully_connected.hh"
#include "ops/sparse_lengths_sum.hh"

namespace recperf {

const char *
modelClassName(ModelClass c)
{
    switch (c) {
      case ModelClass::RMC1: return "RMC1";
      case ModelClass::RMC2: return "RMC2";
      case ModelClass::RMC3: return "RMC3";
      case ModelClass::NCF: return "NCF";
      case ModelClass::Other: return "Other";
    }
    return "Unknown";
}

const char *
embPrecisionName(EmbPrecision precision)
{
    switch (precision) {
      case EmbPrecision::Fp32: return "fp32";
      case EmbPrecision::Fp16: return "fp16";
      case EmbPrecision::Int8: return "int8";
    }
    return "unknown";
}

int64_t
EmbeddingConfig::rowsOf(int64_t index) const
{
    RP_ASSERT(index >= 0 && index < numTables, "table %lld out of %lld",
              static_cast<long long>(index),
              static_cast<long long>(numTables));
    if (!tableRows.empty())
        return tableRows[static_cast<size_t>(index)];
    return rowsPerTable;
}

int64_t
EmbeddingConfig::totalRows() const
{
    if (tableRows.empty())
        return numTables * rowsPerTable;
    int64_t total = 0;
    for (int64_t rows : tableRows)
        total += rows;
    return total;
}

int64_t
EmbeddingConfig::rowBytes() const
{
    switch (precision) {
      case EmbPrecision::Fp32: return embDim * 4;
      case EmbPrecision::Fp16: return embDim * 2;
      case EmbPrecision::Int8: return embDim + 8;
    }
    RP_PANIC("unreachable precision");
}

void
ModelConfig::validate() const
{
    RP_ASSERT(!topMlp.empty(), "%s: model needs a Top-FC stack",
              name.c_str());
    RP_ASSERT(topMlp.back() == 1, "%s: final Top-FC width must be 1",
              name.c_str());
    for (int64_t w : bottomMlp)
        RP_ASSERT(w > 0, "%s: non-positive Bottom-FC width", name.c_str());
    for (int64_t w : topMlp)
        RP_ASSERT(w > 0, "%s: non-positive Top-FC width", name.c_str());
    if (!bottomMlp.empty()) {
        RP_ASSERT(denseFeatures > 0,
                  "%s: Bottom-FC present but no dense features",
                  name.c_str());
    }
    if (emb.numTables > 0) {
        RP_ASSERT((emb.rowsPerTable > 0 || !emb.tableRows.empty()) &&
                  emb.embDim > 0 && emb.lookupsPerTable > 0,
                  "%s: incomplete embedding config", name.c_str());
        if (!emb.tableRows.empty()) {
            RP_ASSERT(static_cast<int64_t>(emb.tableRows.size()) ==
                      emb.numTables,
                      "%s: %zu per-table row counts for %lld tables",
                      name.c_str(), emb.tableRows.size(),
                      static_cast<long long>(emb.numTables));
            for (int64_t rows : emb.tableRows)
                RP_ASSERT(rows > 0, "%s: non-positive table rows",
                          name.c_str());
        }
    }
    if (interaction == InteractionKind::Dot) {
        RP_ASSERT(emb.numTables > 0,
                  "%s: dot interaction needs embedding tables",
                  name.c_str());
        RP_ASSERT(bottomMlp.empty() || bottomOutDim() == emb.embDim,
                  "%s: dot interaction needs bottomOutDim == embDim "
                  "(%lld != %lld)", name.c_str(),
                  static_cast<long long>(bottomOutDim()),
                  static_cast<long long>(emb.embDim));
    }
    RP_ASSERT(topInputDim() > 0, "%s: model has no inputs at all",
              name.c_str());
}

int64_t
ModelConfig::featureCount() const
{
    return emb.numTables + (bottomMlp.empty() ? 0 : 1);
}

int64_t
ModelConfig::bottomOutDim() const
{
    return bottomMlp.empty() ? 0 : bottomMlp.back();
}

int64_t
ModelConfig::topInputDim() const
{
    if (interaction == InteractionKind::Dot) {
        int64_t f = featureCount();
        return f * (f - 1) / 2 + bottomOutDim();
    }
    return bottomOutDim() + emb.numTables * emb.embDim;
}

int64_t
ModelConfig::fcParamCount() const
{
    int64_t params = 0;
    int64_t in = denseFeatures;
    for (int64_t out : bottomMlp) {
        params += in * out + out;
        in = out;
    }
    in = topInputDim();
    for (int64_t out : topMlp) {
        params += in * out + out;
        in = out;
    }
    return params;
}

int64_t
ModelConfig::embStorageBytes() const
{
    return emb.totalRows() * emb.rowBytes();
}

int64_t
ModelConfig::lookupsPerSample() const
{
    return emb.numTables * emb.lookupsPerTable;
}

OpCost
ModelConfig::inferenceCost(int64_t batch) const
{
    OpCost total;
    int64_t in = denseFeatures;
    for (int64_t out : bottomMlp) {
        total += FullyConnected::cost(batch, in, out);
        total += elementwiseCost(batch * out); // ReLU
        in = out;
    }
    if (emb.numTables > 0) {
        OpCost sls = EmbeddingTable::cost(
            batch * lookupsPerSample(), batch * emb.numTables, emb.embDim);
        // Adjust the table-read traffic for the storage precision.
        sls.bytesRead = static_cast<double>(batch * lookupsPerSample()) *
                static_cast<double>(emb.rowBytes()) +
            static_cast<double>(batch * lookupsPerSample()) *
                sizeof(int64_t);
        total += sls;
    }
    if (interaction == InteractionKind::Dot) {
        int64_t f = featureCount();
        OpCost dot;
        dot.flops = static_cast<double>(batch) *
            static_cast<double>(f * (f - 1) / 2) * 2.0 *
            static_cast<double>(emb.embDim);
        dot.bytesRead = static_cast<double>(batch) *
            static_cast<double>(f) * static_cast<double>(emb.embDim) * 4.0;
        dot.bytesWritten = static_cast<double>(batch) *
            static_cast<double>(topInputDim()) * 4.0;
        total += dot;
    } else {
        total += concatCost(batch * topInputDim());
    }
    in = topInputDim();
    for (size_t i = 0; i < topMlp.size(); ++i) {
        int64_t out = topMlp[i];
        total += FullyConnected::cost(batch, in, out);
        total += elementwiseCost(batch * out); // ReLU / sigmoid
        in = out;
    }
    return total;
}

ModelConfig
ModelConfig::functionalScale(int64_t max_rows) const
{
    ModelConfig scaled = *this;
    scaled.emb.rowsPerTable = std::min(emb.rowsPerTable, max_rows);
    bool changed = scaled.emb.rowsPerTable != emb.rowsPerTable;
    for (int64_t &rows : scaled.emb.tableRows) {
        changed |= rows > max_rows;
        rows = std::min(rows, max_rows);
    }
    if (changed)
        scaled.name += "-functional";
    return scaled;
}

} // namespace recperf

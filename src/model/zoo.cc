#include "model/zoo.hh"

namespace recperf {

ModelConfig
rmc1Small()
{
    ModelConfig m;
    m.name = "RMC1-small";
    m.modelClass = ModelClass::RMC1;
    m.denseFeatures = 128;
    m.bottomMlp = {128, 64, 32};
    m.emb = {/*numTables=*/4, /*rowsPerTable=*/200'000, /*embDim=*/32,
             /*lookupsPerTable=*/80};
    m.topMlp = {128, 32, 1};
    m.validate();
    return m;
}

ModelConfig
rmc1Large()
{
    ModelConfig m;
    m.name = "RMC1-large";
    m.modelClass = ModelClass::RMC1;
    m.denseFeatures = 256;
    m.bottomMlp = {256, 128, 32};
    m.emb = {12, 200'000, 32, 80};
    m.topMlp = {256, 64, 1};
    m.validate();
    return m;
}

ModelConfig
rmc2Small()
{
    ModelConfig m;
    m.name = "RMC2-small";
    m.modelClass = ModelClass::RMC2;
    m.denseFeatures = 128;
    m.bottomMlp = {128, 64, 32};
    m.emb = {32, 2'000'000, 32, 80};
    m.topMlp = {128, 32, 1};
    m.validate();
    return m;
}

ModelConfig
rmc2Large()
{
    ModelConfig m;
    m.name = "RMC2-large";
    m.modelClass = ModelClass::RMC2;
    m.denseFeatures = 256;
    m.bottomMlp = {256, 128, 32};
    m.emb = {40, 2'500'000, 32, 120};
    m.topMlp = {256, 64, 1};
    m.validate();
    return m;
}

ModelConfig
rmc3Small()
{
    ModelConfig m;
    m.name = "RMC3-small";
    m.modelClass = ModelClass::RMC3;
    m.denseFeatures = 2048;
    m.bottomMlp = {2560, 256, 128};
    m.emb = {4, 2'000'000, 32, 20};
    m.topMlp = {512, 128, 1};
    m.validate();
    return m;
}

ModelConfig
rmc3Large()
{
    ModelConfig m;
    m.name = "RMC3-large";
    m.modelClass = ModelClass::RMC3;
    m.denseFeatures = 4096;
    m.bottomMlp = {2560, 512, 128};
    m.emb = {8, 2'500'000, 32, 20};
    m.topMlp = {512, 128, 1};
    m.validate();
    return m;
}

ModelConfig
rmc3Dot()
{
    ModelConfig m = rmc3Small();
    m.name = "RMC3-dot";
    // Dot interaction requires the Bottom-FC output to match the
    // embedding dimension; more tables give the interaction substance.
    m.bottomMlp = {2560, 512, 32};
    m.emb.numTables = 12;
    m.interaction = InteractionKind::Dot;
    m.validate();
    return m;
}

std::vector<ModelConfig>
representativeModels()
{
    return {rmc1Small(), rmc2Small(), rmc3Small()};
}

std::vector<ModelConfig>
allZooModels()
{
    return {rmc1Small(), rmc1Large(), rmc2Small(),
            rmc2Large(), rmc3Small(), rmc3Large()};
}

ModelConfig
rmc1PaperExample()
{
    ModelConfig m;
    m.name = "RMC1-paper-example";
    m.modelClass = ModelClass::RMC1;
    m.denseFeatures = 128;
    m.bottomMlp = {128, 64, 32};
    m.emb = {5, 100'000, 32, 80};
    m.topMlp = {128, 32, 1};
    m.validate();
    return m;
}

ModelConfig
ncfConfig()
{
    // MLPerf-NCF on MovieLens-20m: user and item embeddings for the
    // GMF and MLP towers (138k users / 27k items; modeled as four
    // uniform tables of the average size), single lookup per table,
    // small MLP, no dense features.
    ModelConfig m;
    m.name = "MLPerf-NCF";
    m.modelClass = ModelClass::NCF;
    m.denseFeatures = 0;
    m.bottomMlp = {};
    m.emb = {4, 82'000, 64, 1};
    m.topMlp = {256, 128, 64, 1};
    m.validate();
    return m;
}

} // namespace recperf

#include "ops/fully_connected.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/aligned.hh"
#include "core/logging.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "obs/trace.hh"
#include "ops/kernel_cache.hh"
#include "ops/microkernels.hh"

namespace recperf {

void
gemmBt(const float *a, const float *b, float *c, int64_t m, int64_t n,
       int64_t k, bool accumulate)
{
    obs::Tracer::Scope trace(obs::Tracer::global(), "op", "gemmBt");
    if (m == 0)
        return;
    if (n == 0 || k == 0) {
        if (!accumulate)
            std::fill(c, c + m * n, 0.0f);
        return;
    }
    // One acquire-load dispatch in the steady state; the first touch
    // of a shape tunes under the cache mutex (never on the pool).
    const KernelCache::GemmEntry &entry = KernelCache::global().gemm(m, n, k);
    const GemmPlan &plan = entry.plan;
    const size_t pack_floats = static_cast<size_t>(
        microkernels::gemmPackFloats(plan.blk.nc, k, plan.blk.kc));
    const auto t0 = std::chrono::steady_clock::now();
    // MC is the parallel grain: each chunk packs its own B panels
    // (64-byte-aligned scratch) and reduces its rows completely, so
    // chunks can land on any thread without changing a single bit.
    parallelFor(0, m, plan.blk.mc, [&](int64_t m0, int64_t m1) {
        AlignedBuffer<float> pack(pack_floats);
        runGemmPanel(a, b, c, m0, m1, n, k, plan, pack.data(),
                     accumulate);
    });
    entry.recordCall(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
}

FullyConnected::FullyConnected(int64_t in_features, int64_t out_features)
    : in_(in_features), out_(out_features),
      weight_({out_features, in_features}), bias_({out_features})
{
    RP_ASSERT(in_features > 0 && out_features > 0,
              "FC dims must be positive, got %lld x %lld",
              static_cast<long long>(in_features),
              static_cast<long long>(out_features));
}

FullyConnected::FullyConnected(int64_t in_features, int64_t out_features,
                               Rng &rng)
    : FullyConnected(in_features, out_features)
{
    // He initialization keeps activation magnitudes stable through ReLU
    // stacks.
    float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
    weight_.fillGaussian(rng, stddev);
    bias_.fill(0.0f);
}

Tensor
FullyConnected::forward(const Tensor &x) const
{
    obs::Tracer::Scope trace(obs::Tracer::global(), "op", "FC::forward");
    RP_ASSERT(x.rank() == 2, "FC input must be rank 2, got %s",
              shapeToString(x.shape()).c_str());
    RP_ASSERT(x.dim(1) == in_, "FC input width %lld != in_features %lld",
              static_cast<long long>(x.dim(1)), static_cast<long long>(in_));

    int64_t batch = x.dim(0);
    Tensor y({batch, out_});
    gemmBt(x.data(), weight_.data(), y.data(), batch, out_, in_,
           /*accumulate=*/false);
    for (int64_t i = 0; i < batch; ++i) {
        float *row = y.data() + i * out_;
        for (int64_t j = 0; j < out_; ++j)
            row[j] += bias_.at(j);
    }
    return y;
}

OpCost
FullyConnected::cost(int64_t batch, int64_t in_features, int64_t out_features)
{
    OpCost c;
    // One multiply-add per (batch, out, in) triple plus the bias add.
    c.flops = 2.0 * static_cast<double>(batch) *
        static_cast<double>(in_features) * static_cast<double>(out_features) +
        static_cast<double>(batch) * static_cast<double>(out_features);
    // Weights + bias are read once; the input panel is read once.
    c.bytesRead = sizeof(float) *
        (static_cast<double>(in_features) * static_cast<double>(out_features) +
         static_cast<double>(out_features) +
         static_cast<double>(batch) * static_cast<double>(in_features));
    c.bytesWritten = sizeof(float) * static_cast<double>(batch) *
        static_cast<double>(out_features);
    return c;
}

} // namespace recperf

#include "ops/batch_matmul.hh"

#include <algorithm>

#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "obs/trace.hh"

namespace recperf {

Tensor
dotInteraction(const Tensor &features)
{
    obs::Tracer::Scope trace(obs::Tracer::global(), "op",
                             "dotInteraction");
    RP_ASSERT(features.rank() == 3, "dotInteraction input must be rank 3");
    int64_t batch = features.dim(0);
    int64_t f = features.dim(1);
    int64_t d = features.dim(2);
    int64_t pairs = f * (f - 1) / 2;

    Tensor out({batch, pairs});
    // One chunk should cover at least ~16K multiply-adds.
    int64_t grain = std::max<int64_t>(
        1, 16384 / std::max<int64_t>(1, pairs * d));
    parallelFor(0, batch, grain, [&](int64_t lo, int64_t hi) {
        for (int64_t b = lo; b < hi; ++b) {
            const float *z = features.data() + b * f * d;
            float *dst = out.data() + b * pairs;
            int64_t idx = 0;
            for (int64_t i = 1; i < f; ++i) {
                for (int64_t j = 0; j < i; ++j) {
                    const float *zi = z + i * d;
                    const float *zj = z + j * d;
                    float acc = 0.0f;
                    for (int64_t c = 0; c < d; ++c)
                        acc += zi[c] * zj[c];
                    dst[idx++] = acc;
                }
            }
        }
    });
    return out;
}

} // namespace recperf

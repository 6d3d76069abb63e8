#include "ops/reference.hh"

#include "core/logging.hh"

namespace recperf {
namespace reference {

Tensor
fullyConnected(const Tensor &x, const Tensor &w, const Tensor &b)
{
    int64_t batch = x.dim(0);
    int64_t in = x.dim(1);
    int64_t out = w.dim(0);
    RP_ASSERT(w.dim(1) == in && b.dim(0) == out, "reference FC shape mismatch");

    Tensor y({batch, out});
    for (int64_t i = 0; i < batch; ++i) {
        for (int64_t j = 0; j < out; ++j) {
            double acc = b.at(j);
            for (int64_t p = 0; p < in; ++p)
                acc += static_cast<double>(x.at(i, p)) * w.at(j, p);
            y.at(i, j) = static_cast<float>(acc);
        }
    }
    return y;
}

Tensor
sparseLengthsSum(const Tensor &table, const std::vector<int64_t> &ids,
                 const std::vector<int64_t> &lengths)
{
    int64_t dim = table.dim(1);
    Tensor out({static_cast<int64_t>(lengths.size()), dim});
    size_t cursor = 0;
    for (size_t slot = 0; slot < lengths.size(); ++slot) {
        for (int64_t j = 0; j < lengths[slot]; ++j) {
            int64_t id = ids[cursor++];
            for (int64_t c = 0; c < dim; ++c) {
                out.at(static_cast<int64_t>(slot), c) += table.at(id, c);
            }
        }
    }
    return out;
}

} // namespace reference
} // namespace recperf

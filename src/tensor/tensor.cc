#include "tensor/tensor.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/logging.hh"
#include "core/rng.hh"

namespace recperf {

int64_t
numElements(const Shape &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        RP_ASSERT(d >= 0, "negative dimension %lld", static_cast<long long>(d));
        n *= d;
    }
    return n;
}

std::string
shapeToString(const Shape &shape)
{
    std::string out = "[";
    for (size_t i = 0; i < shape.size(); ++i) {
        if (i)
            out += ", ";
        out += strprintf("%lld", static_cast<long long>(shape[i]));
    }
    return out + "]";
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape))
{
    RP_ASSERT(shape_.size() <= 4, "tensor rank %zu exceeds 4", shape_.size());
    size_ = numElements(shape_);
    buf_.resize(static_cast<size_t>(size_));
    if (size_ > 0)
        std::memset(buf_.data(), 0, static_cast<size_t>(size_) * sizeof(float));
}

int64_t
Tensor::dim(size_t i) const
{
    RP_ASSERT(i < shape_.size(), "dim %zu out of rank %zu", i, shape_.size());
    return shape_[i];
}

float &
Tensor::at(int64_t i)
{
    RP_ASSERT(i >= 0 && i < size_, "flat index %lld out of %lld",
              static_cast<long long>(i), static_cast<long long>(size_));
    return buf_[static_cast<size_t>(i)];
}

float
Tensor::at(int64_t i) const
{
    RP_ASSERT(i >= 0 && i < size_, "flat index %lld out of %lld",
              static_cast<long long>(i), static_cast<long long>(size_));
    return buf_[static_cast<size_t>(i)];
}

float &
Tensor::at(int64_t r, int64_t c)
{
    RP_ASSERT(rank() == 2, "2-D access on rank-%zu tensor", rank());
    RP_ASSERT(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1],
              "index (%lld, %lld) out of %s", static_cast<long long>(r),
              static_cast<long long>(c), shapeToString(shape_).c_str());
    return buf_[static_cast<size_t>(r * shape_[1] + c)];
}

float
Tensor::at(int64_t r, int64_t c) const
{
    return const_cast<Tensor *>(this)->at(r, c);
}

void
Tensor::fill(float value)
{
    for (int64_t i = 0; i < size_; ++i)
        buf_[static_cast<size_t>(i)] = value;
}

void
Tensor::fillUniform(Rng &rng, float lo, float hi)
{
    for (int64_t i = 0; i < size_; ++i)
        buf_[static_cast<size_t>(i)] = rng.nextFloat(lo, hi);
}

void
Tensor::fillGaussian(Rng &rng, float stddev)
{
    for (int64_t i = 0; i < size_; ++i)
        buf_[static_cast<size_t>(i)] =
            static_cast<float>(rng.nextGaussian()) * stddev;
}

bool
Tensor::allClose(const Tensor &other, float tol) const
{
    if (shape_ != other.shape_)
        return false;
    for (int64_t i = 0; i < size_; ++i) {
        float a = buf_[static_cast<size_t>(i)];
        float b = other.buf_[static_cast<size_t>(i)];
        float scale = std::max({1.0f, std::fabs(a), std::fabs(b)});
        if (std::fabs(a - b) > tol * scale)
            return false;
    }
    return true;
}

Tensor
Tensor::reshaped(Shape new_shape) const
{
    RP_ASSERT(numElements(new_shape) == size_,
              "reshape %s -> %s changes element count",
              shapeToString(shape_).c_str(),
              shapeToString(new_shape).c_str());
    Tensor out(std::move(new_shape));
    if (size_ > 0) {
        std::memcpy(out.data(), data(),
                    static_cast<size_t>(size_) * sizeof(float));
    }
    return out;
}

} // namespace recperf

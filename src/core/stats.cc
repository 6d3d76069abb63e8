#include "core/stats.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"

namespace recperf {

double
percentile(std::vector<double> samples, double pct)
{
    RP_ASSERT(!samples.empty(), "percentile of empty sample set");
    RP_ASSERT(pct >= 0.0 && pct <= 100.0, "percentile %f out of [0,100]", pct);
    std::sort(samples.begin(), samples.end());
    if (samples.size() == 1)
        return samples.front();
    double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = static_cast<size_t>(std::ceil(rank));
    double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

} // namespace recperf

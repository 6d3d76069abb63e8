#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"
#include "obs/report.hh"

namespace recperf {
namespace obs {

std::string
humanSeconds(double s)
{
    if (s == 0.0)
        return "0";
    if (s < 1e-6)
        return strprintf("%.0f ns", s * 1e9);
    if (s < 1e-3)
        return strprintf("%.2f us", s * 1e6);
    if (s < 1.0)
        return strprintf("%.3f ms", s * 1e3);
    return strprintf("%.3f s", s);
}

// ------------------------------------------------------------ histogram

size_t
LatencyHistogram::bucketIndex(double seconds)
{
    double ns = seconds * 1e9;
    if (!(ns >= 1.0)) // also catches NaN and negatives
        return 0;
    int exp = 0;
    double frac = std::frexp(ns, &exp); // ns = frac * 2^exp, frac in [0.5, 1)
    size_t octave = static_cast<size_t>(exp - 1); // floor(log2 ns)
    if (octave >= kOctaves)
        return kNumBuckets - 1;
    // frac*2 is in [1, 2): the top kSubBuckets-th of the mantissa picks
    // the linear sub-bucket within the octave.
    auto sub = static_cast<size_t>((frac * 2.0 - 1.0) *
                                   static_cast<double>(kSubBuckets));
    sub = std::min(sub, kSubBuckets - 1);
    return octave * kSubBuckets + sub;
}

double
LatencyHistogram::bucketMidpoint(size_t i)
{
    size_t octave = i / kSubBuckets;
    size_t sub = i % kSubBuckets;
    double lo_ns = std::ldexp(1.0 + static_cast<double>(sub) /
                                        static_cast<double>(kSubBuckets),
                              static_cast<int>(octave));
    double hi_ns = std::ldexp(1.0 + static_cast<double>(sub + 1) /
                                        static_cast<double>(kSubBuckets),
                              static_cast<int>(octave));
    return 0.5 * (lo_ns + hi_ns) * 1e-9;
}

double
HistogramSnapshot::percentile(double pct) const
{
    if (count == 0 || buckets.empty())
        return 0.0;
    pct = std::clamp(pct, 0.0, 100.0);
    // Rank of the requested percentile among `count` ordered samples
    // (nearest-rank, 1-based).
    auto rank = static_cast<uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(count)));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank) {
            // A bucket midpoint can overshoot the true extremes (the
            // max may sit in the lower half of its bucket); clamp so
            // the table never reports p99 > max.
            return std::clamp(LatencyHistogram::bucketMidpoint(i), min,
                              max);
        }
    }
    return max;
}

// ------------------------------------------------------------- registry

MetricsRegistry::Shard::Shard()
{
    for (auto &c : counters)
        c.store(0, std::memory_order_relaxed);
    for (auto &h : hists) {
        h.buckets = std::make_unique<std::atomic<uint64_t>[]>(
            LatencyHistogram::kNumBuckets);
        for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i)
            h.buckets[i].store(0, std::memory_order_relaxed);
    }
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry *reg = new MetricsRegistry();
    return *reg;
}

uint64_t
MetricsRegistry::nextUid()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry::Shard *
MetricsRegistry::shard()
{
    // Keyed by the registry's uid, not its address: a registry
    // stack-allocated where a destroyed one lived must not inherit the
    // stale cached shard.
    struct Slot
    {
        uint64_t uid = 0;
        std::shared_ptr<Shard> shard;
    };
    thread_local Slot slot;
    if (slot.uid != uid_ || !slot.shard) {
        auto fresh = std::make_shared<Shard>();
        {
            std::lock_guard<std::mutex> lock(mu_);
            shards_.push_back(fresh);
        }
        slot.uid = uid_;
        slot.shard = std::move(fresh);
    }
    return slot.shard.get();
}

uint32_t
MetricsRegistry::intern(std::vector<std::string> &names, size_t cap,
                        const char *kind, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return static_cast<uint32_t>(i);
    }
    RP_ASSERT(names.size() < cap, "too many %s metrics (cap %zu)", kind,
              cap);
    names.push_back(name);
    return static_cast<uint32_t>(names.size() - 1);
}

Counter
MetricsRegistry::counter(const std::string &name)
{
    return {this, intern(counter_names_, kMaxCounters, "counter", name)};
}

Gauge
MetricsRegistry::gauge(const std::string &name)
{
    uint32_t id = intern(gauge_names_, kMaxGauges, "gauge", name);
    {
        std::lock_guard<std::mutex> lock(mu_);
        while (gauges_.size() < gauge_names_.size())
            gauges_.push_back(std::make_unique<std::atomic<double>>(0.0));
    }
    return {this, id};
}

LatencyHistogram
MetricsRegistry::histogram(const std::string &name)
{
    return {this, intern(hist_names_, kMaxHistograms, "histogram", name)};
}

void
MetricsRegistry::addCounter(uint32_t id, uint64_t n)
{
    shard()->counters[id].fetch_add(n, std::memory_order_relaxed);
}

void
MetricsRegistry::setGauge(uint32_t id, double v)
{
    std::atomic<double> *cell = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        cell = gauges_.at(id).get();
    }
    cell->store(v, std::memory_order_relaxed);
}

void
MetricsRegistry::recordHistogram(uint32_t id, double seconds)
{
    // A NaN or infinite sample would poison sum/min/max permanently
    // (NaN propagates through every later merge); negatives have no
    // latency meaning. NaN and negatives clamp to zero (bucket 0);
    // +inf saturates to the histogram's top of range so an "infinite"
    // latency still reads as huge rather than as instantaneous.
    if (std::isnan(seconds) || seconds < 0.0)
        seconds = 0.0;
    else if (std::isinf(seconds))
        seconds = LatencyHistogram::bucketMidpoint(
            LatencyHistogram::kNumBuckets - 1);
    Shard::Hist &h = shard()->hists[id];
    uint64_t n = h.count.load(std::memory_order_relaxed);
    if (n == 0 || seconds < h.min.load(std::memory_order_relaxed))
        h.min.store(seconds, std::memory_order_relaxed);
    if (n == 0 || seconds > h.max.load(std::memory_order_relaxed))
        h.max.store(seconds, std::memory_order_relaxed);
    h.count.store(n + 1, std::memory_order_relaxed);
    h.sum.store(h.sum.load(std::memory_order_relaxed) + seconds,
                std::memory_order_relaxed);
    h.buckets[LatencyHistogram::bucketIndex(seconds)].fetch_add(
        1, std::memory_order_relaxed);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snap;
    snap.counters.reserve(counter_names_.size());
    for (size_t i = 0; i < counter_names_.size(); ++i) {
        uint64_t total = 0;
        for (const auto &s : shards_)
            total += s->counters[i].load(std::memory_order_relaxed);
        snap.counters.emplace_back(counter_names_[i], total);
    }
    for (size_t i = 0; i < gauge_names_.size(); ++i) {
        snap.gauges.emplace_back(
            gauge_names_[i],
            gauges_[i]->load(std::memory_order_relaxed));
    }
    for (size_t i = 0; i < hist_names_.size(); ++i) {
        HistogramSnapshot h;
        h.buckets.assign(LatencyHistogram::kNumBuckets, 0);
        bool first = true;
        for (const auto &s : shards_) {
            const Shard::Hist &sh = s->hists[i];
            uint64_t c = sh.count.load(std::memory_order_relaxed);
            if (c == 0)
                continue;
            h.count += c;
            h.sum += sh.sum.load(std::memory_order_relaxed);
            double mn = sh.min.load(std::memory_order_relaxed);
            double mx = sh.max.load(std::memory_order_relaxed);
            if (first || mn < h.min)
                h.min = mn;
            if (first || mx > h.max)
                h.max = mx;
            first = false;
            for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
                h.buckets[b] +=
                    sh.buckets[b].load(std::memory_order_relaxed);
            }
        }
        snap.histograms.emplace_back(hist_names_[i], std::move(h));
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &s : shards_) {
        for (auto &c : s->counters)
            c.store(0, std::memory_order_relaxed);
        for (auto &h : s->hists) {
            h.count.store(0, std::memory_order_relaxed);
            h.sum.store(0.0, std::memory_order_relaxed);
            h.min.store(0.0, std::memory_order_relaxed);
            h.max.store(0.0, std::memory_order_relaxed);
            for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i)
                h.buckets[i].store(0, std::memory_order_relaxed);
        }
    }
    for (const auto &g : gauges_)
        g->store(0.0, std::memory_order_relaxed);
}

// -------------------------------------------------------------- handles

void
Counter::add(uint64_t n)
{
    if (reg_)
        reg_->addCounter(id_, n);
}

void
Gauge::set(double v)
{
    if (reg_)
        reg_->setGauge(id_, v);
}

void
LatencyHistogram::record(double seconds)
{
    if (reg_)
        reg_->recordHistogram(id_, seconds);
}

// ------------------------------------------------------------- snapshot

uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    for (const auto &[n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

double
MetricsSnapshot::gauge(const std::string &name) const
{
    for (const auto &[n, v] : gauges) {
        if (n == name)
            return v;
    }
    return 0.0;
}

const HistogramSnapshot *
MetricsSnapshot::histogram(const std::string &name) const
{
    for (const auto &[n, v] : histograms) {
        if (n == name)
            return &v;
    }
    return nullptr;
}

std::string
MetricsSnapshot::table() const
{
    std::string out;
    size_t width = 8;
    for (const auto &[n, v] : counters)
        width = std::max(width, n.size());
    for (const auto &[n, v] : gauges)
        width = std::max(width, n.size());
    for (const auto &[n, v] : histograms)
        width = std::max(width, n.size());
    auto w = static_cast<int>(width);

    for (const auto &[n, v] : counters) {
        out += strprintf("  %-*s %14llu\n", w, n.c_str(),
                         static_cast<unsigned long long>(v));
    }
    for (const auto &[n, v] : gauges)
        out += strprintf("  %-*s %14.4g\n", w, n.c_str(), v);
    for (const auto &[n, h] : histograms) {
        out += strprintf(
            "  %-*s  count %-8llu mean %-10s p50 %-10s p95 %-10s "
            "p99 %-10s max %s\n",
            w, n.c_str(), static_cast<unsigned long long>(h.count),
            humanSeconds(h.mean()).c_str(),
            humanSeconds(h.percentile(50)).c_str(),
            humanSeconds(h.percentile(95)).c_str(),
            humanSeconds(h.percentile(99)).c_str(),
            humanSeconds(h.max).c_str());
    }
    return out;
}

std::string
MetricsSnapshot::toJson() const
{
    std::string out = "{\n  \"schema_version\": 1,\n  \"counters\": {";
    bool first = true;
    for (const auto &[n, v] : counters) {
        out += strprintf("%s\n    \"%s\": %llu", first ? "" : ",",
                         jsonEscape(n).c_str(),
                         static_cast<unsigned long long>(v));
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto &[n, v] : gauges) {
        out += strprintf("%s\n    \"%s\": %.12g", first ? "" : ",",
                         jsonEscape(n).c_str(), v);
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto &[n, h] : histograms) {
        out += strprintf(
            "%s\n    \"%s\": {\"count\": %llu, \"sum_s\": %.12g, "
            "\"min_s\": %.12g, \"max_s\": %.12g, \"mean_s\": %.12g, "
            "\"p50_s\": %.12g, \"p95_s\": %.12g, \"p99_s\": %.12g, "
            "\"p999_s\": %.12g}",
            first ? "" : ",", jsonEscape(n).c_str(),
            static_cast<unsigned long long>(h.count), h.sum, h.min,
            h.max, h.mean(), h.percentile(50), h.percentile(95),
            h.percentile(99), h.percentile(99.9));
        first = false;
    }
    out += first ? "}\n}\n" : "\n  }\n}\n";
    return out;
}

} // namespace obs
} // namespace recperf

/**
 * @file
 * Process-wide metrics registry: counters, gauges, and HDR-style
 * latency histograms.
 *
 * The paper's contribution is *characterization* — per-operator cycle
 * breakdowns (Fig 4/7), batching effects (Fig 8), tail latency
 * (Fig 11). This registry is the substrate that makes those numbers
 * observable in one place at the end of any run instead of being
 * re-derived ad hoc by every tool and bench.
 *
 * Design:
 *  - Metrics are interned by name once (mutex-protected) and then
 *    addressed by dense integer ids through cheap value handles.
 *  - Hot-path updates go to per-thread shards (relaxed atomics on
 *    cachelines only the owning thread writes), so counting in a
 *    parallelFor region costs one uncontended atomic add.
 *  - snapshot() merges all shards under the registry mutex; a thread
 *    that has exited keeps contributing its final values because the
 *    registry co-owns every shard.
 *  - Latency histograms are HDR-style log-linear: 16 sub-buckets per
 *    power of two from 1 ns up to ~18 minutes, so any percentile is
 *    answered with < ~3% relative error at O(1) memory.
 */

#ifndef RECPERF_OBS_METRICS_HH
#define RECPERF_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace recperf {
namespace obs {

class MetricsRegistry;

/** Engineering-friendly rendering of a seconds value ("3.2 us"). */
std::string humanSeconds(double s);

/** Merged view of one latency histogram at snapshot time. */
struct HistogramSnapshot
{
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /** Merged HDR bucket counts (see LatencyBuckets layout). */
    std::vector<uint64_t> buckets;

    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

    /**
     * Percentile in [0, 100] from the merged buckets; the answer is the
     * bucket midpoint, i.e. within half a sub-bucket (~3%) of the exact
     * rank statistic. Returns 0 on an empty histogram.
     */
    double percentile(double pct) const;
};

/** Point-in-time merged view of every registered metric. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

    /** Value of a counter, 0 when absent. */
    uint64_t counter(const std::string &name) const;

    /** Value of a gauge, 0.0 when absent. */
    double gauge(const std::string &name) const;

    /** Histogram by name, nullptr when absent. */
    const HistogramSnapshot *histogram(const std::string &name) const;

    /**
     * Uniform human-readable summary table: one aligned row per metric
     * (histograms report count / mean / p50 / p95 / p99 / max). This is
     * the single end-of-run formatter the CLI tools route through.
     */
    std::string table() const;

    /** Machine-readable JSON (schema_version 1). */
    std::string toJson() const;
};

/** Cheap value handle for a registered counter. */
class Counter
{
  public:
    Counter() = default;
    void add(uint64_t n);
    void inc() { add(1); }

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry *reg, uint32_t id) : reg_(reg), id_(id) {}
    MetricsRegistry *reg_ = nullptr;
    uint32_t id_ = 0;
};

/** Cheap value handle for a registered gauge (last write wins). */
class Gauge
{
  public:
    Gauge() = default;
    void set(double v);

  private:
    friend class MetricsRegistry;
    Gauge(MetricsRegistry *reg, uint32_t id) : reg_(reg), id_(id) {}
    MetricsRegistry *reg_ = nullptr;
    uint32_t id_ = 0;
};

/** Cheap value handle for a registered latency histogram (seconds). */
class LatencyHistogram
{
  public:
    LatencyHistogram() = default;
    void record(double seconds);

    /** Bucket index a value falls into (log-linear HDR layout). */
    static size_t bucketIndex(double seconds);

    /** Midpoint value (seconds) represented by bucket @p i. */
    static double bucketMidpoint(size_t i);

    /** Sub-buckets per power-of-two octave. */
    static constexpr size_t kSubBuckets = 16;

    /** Octaves covered: 1 ns .. 2^40 ns (~18 minutes). */
    static constexpr size_t kOctaves = 41;

    static constexpr size_t kNumBuckets = kOctaves * kSubBuckets;

  private:
    friend class MetricsRegistry;
    LatencyHistogram(MetricsRegistry *reg, uint32_t id)
        : reg_(reg), id_(id)
    {
    }
    MetricsRegistry *reg_ = nullptr;
    uint32_t id_ = 0;
};

/**
 * The registry. Use MetricsRegistry::global() for the process-wide
 * instance; tests may construct private registries.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    static MetricsRegistry &global();

    /**
     * Intern a metric by name (idempotent: the same name returns a
     * handle to the same metric). Names are reported in registration
     * order by snapshot().
     */
    Counter counter(const std::string &name);
    Gauge gauge(const std::string &name);
    LatencyHistogram histogram(const std::string &name);

    /** Merge every thread's shard into one consistent view. */
    MetricsSnapshot snapshot() const;

    /** Zero all values (registrations survive). */
    void reset();

    /** Hard cap on metrics per kind; shards preallocate to this. */
    static constexpr size_t kMaxCounters = 256;
    static constexpr size_t kMaxHistograms = 64;
    static constexpr size_t kMaxGauges = 128;

  private:
    friend class Counter;
    friend class Gauge;
    friend class LatencyHistogram;

    /**
     * Per-thread value storage. Written only by the owning thread
     * (relaxed atomics so snapshot() can read concurrently without
     * tearing); co-owned by the registry so values outlive the thread.
     */
    struct Shard
    {
        std::atomic<uint64_t> counters[kMaxCounters];
        struct Hist
        {
            std::atomic<uint64_t> count{0};
            std::atomic<double> sum{0.0};
            std::atomic<double> min{0.0};
            std::atomic<double> max{0.0};
            std::unique_ptr<std::atomic<uint64_t>[]> buckets;
        };
        Hist hists[kMaxHistograms];
        Shard();
    };

    static uint64_t nextUid();

    Shard *shard();
    void addCounter(uint32_t id, uint64_t n);
    void setGauge(uint32_t id, double v);
    void recordHistogram(uint32_t id, double seconds);
    uint32_t intern(std::vector<std::string> &names, size_t cap,
                    const char *kind, const std::string &name);

    /** Process-unique id; the per-thread shard cache keys on it. */
    const uint64_t uid_ = nextUid();

    mutable std::mutex mu_;
    std::vector<std::string> counter_names_;
    std::vector<std::string> gauge_names_;
    std::vector<std::string> hist_names_;
    std::vector<std::unique_ptr<std::atomic<double>>> gauges_;
    std::vector<std::shared_ptr<Shard>> shards_;
};

} // namespace obs
} // namespace recperf

#endif // RECPERF_OBS_METRICS_HH

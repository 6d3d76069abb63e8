/**
 * @file
 * Co-location of multiple model instances on one socket (Section VI).
 *
 * N model instances are pinned to distinct cores of a single socket,
 * sharing its LLC. Their embedding gather streams run through the
 * shared simulated hierarchy, so capacity contention and (on inclusive
 * hierarchies) back-invalidation emerge mechanistically. When N
 * exceeds the socket's physical cores, instances double up via
 * hyperthreading and pay the measured SMT penalties (FC 1.6x,
 * SLS 1.3x).
 */

#ifndef RECPERF_TIMING_COLOCATION_HH
#define RECPERF_TIMING_COLOCATION_HH

#include <memory>
#include <vector>

#include "timing/model_timer.hh"

namespace recperf {

/** Result of one co-location experiment. */
struct ColocationResult
{
    /** Average per-inference timing for each tenant. */
    std::vector<ModelTiming> tenantAverages;

    /** Per-inference total-latency samples across all tenants. */
    std::vector<double> latencySamples;

    /** Per-inference FC-time samples (Fig 11's operator view). */
    std::vector<double> fcSamples;

    /** Per-inference SLS-time samples. */
    std::vector<double> slsSamples;

    /** Mean per-inference latency across tenants. */
    double meanLatency() const;

    /** Aggregate inferences per second (tenants run concurrently). */
    double throughput() const;

    /** Element-wise average of the tenant timing breakdowns. */
    ModelTiming averageTiming() const;
};

/** One co-located model instance: its architecture and run options. */
struct TenantSpec
{
    ModelConfig config;
    TimerOptions options;
};

/**
 * Runs N co-located model instances on one machine's socket.
 */
class ColocationSim
{
  public:
    /**
     * Homogeneous co-location: @p num_tenants instances of one config.
     * Hyperthreading is enabled automatically when the count exceeds
     * the socket's physical core count.
     */
    ColocationSim(const MachineSpec &machine, const ModelConfig &config,
                  const TimerOptions &options, uint32_t num_tenants);

    /**
     * Heterogeneous co-location: one tenant per spec (e.g. the Fig 11
     * experiment co-locating a standalone FC operator with RMC1
     * inferences).
     */
    ColocationSim(const MachineSpec &machine,
                  const std::vector<TenantSpec> &tenants);

    /**
     * Warm up (letting contention estimates converge), then measure.
     */
    ColocationResult run(int warmup_iters, int measure_iters);

    uint32_t numTenants() const;
    bool hyperthreading() const { return hyperthreading_; }

  private:
    void refreshContention(const std::vector<double> &dram_bytes);

    MachineSpec machine_;
    bool hyperthreading_ = false;
    std::unique_ptr<CacheHierarchy> hier_;
    std::vector<std::unique_ptr<ModelTimer>> timers_;
};

} // namespace recperf

#endif // RECPERF_TIMING_COLOCATION_HH

/**
 * @file
 * Discrete-event serving simulation: batching, co-location, and SLA.
 *
 * Section III argues that single-model latency is the wrong data-center
 * metric; what matters is latency-bounded throughput — items ranked per
 * second while meeting the SLA. This module provides the serving layer
 * that turns the per-inference timing model into that metric:
 *
 *  - items (user-post pairs) arrive as a Poisson process;
 *  - a batching queue groups waiting items up to a maximum batch;
 *  - N co-located worker instances (sharing the socket LLC via the
 *    simulated hierarchy, as in ColocationSim) serve batches;
 *  - per-item latency = queueing + service; a lognormal jitter models
 *    the OS/scheduler noise of the production environment (§VI-A).
 */

#ifndef RECPERF_SERVING_SERVER_HH
#define RECPERF_SERVING_SERVER_HH

#include <memory>
#include <string>
#include <vector>

#include "core/stats.hh"
#include "obs/metrics.hh"
#include "obs/request_log.hh"
#include "resilience/fault_injector.hh"
#include "resilience/policies.hh"
#include "sched/brownout.hh"
#include "timing/model_timer.hh"

namespace recperf {

/** Serving-layer configuration. */
struct ServerOptions
{
    /** Co-located model instances (worker cores) on the socket. */
    uint32_t numWorkers = 1;

    /** Largest batch the dynamic batcher will form. */
    int64_t maxBatch = 32;

    /** Latency SLA for an item (arrival to completion). */
    double slaSeconds = 0.450;

    /** Lognormal sigma applied to every service time. */
    double jitterSigma = 0.08;

    uint64_t seed = 1234;

    /** SLA-aware load shedding at the batching queue. */
    AdmissionOptions admission;

    /** Degraded-service response to deep backlogs. */
    DegradeOptions degrade;

    /**
     * Replicas backing this serving tier in the cluster view. When
     * some are unhealthy, the survivors absorb the dead replicas'
     * traffic, so the overload responses arm earlier: the degraded-
     * mode backlog threshold and the admission wait budget both scale
     * by healthy/total.
     */
    uint32_t clusterReplicas = 1;

    /** Currently healthy replicas; 0 means all of clusterReplicas. */
    uint32_t healthyReplicas = 0;

    /** Service-time fault injection (stragglers, load spikes). */
    FaultOptions faults;

    /**
     * Per-item end-to-end deadline budget (arrival to completion);
     * 0 disables. With a deadline, items are shed at admission when
     * the budget cannot cover the p50 service estimate, shed from the
     * queue once the budget expires while waiting, and cancelled
     * mid-batch when the batch finishes past their deadline — counted
     * as deadline-shed rather than silently completed late.
     */
    double deadlineSeconds = 0.0;

    /** SLO-burn-driven graceful-degradation ladder. */
    BrownoutOptions brownout;

    /**
     * Empty when a Server can run with these options, else why not:
     * worker/batch/replica counts, SLA > 0, and the admission,
     * degrade, fault, deadline and brownout validators. The Server
     * constructor asserts it; the CLI reports it as an argument error.
     */
    std::string validate() const;
};

/** Outcome of a serving run. */
struct ServingStats
{
    /** Per-item end-to-end latencies (seconds). */
    LatencySample itemLatency;

    /** Per-batch service times (seconds). */
    LatencySample serviceTime;

    /** Per-batch FC-operator times (for Fig 11-style views). */
    LatencySample fcTime;

    /** Items that met the SLA. */
    uint64_t slaMet = 0;

    /** Items that missed the SLA (would be preemptively dropped). */
    uint64_t slaMissed = 0;

    /** Items shed at admission (predicted wait beyond the budget). */
    uint64_t shedItems = 0;

    /** Low-priority items dropped while in degraded mode. */
    uint64_t droppedLowPriority = 0;

    /** Batches served with the degraded batch cap. */
    uint64_t degradedBatches = 0;

    /** Items rejected at admission: deadline below the p50 service
     *  estimate, so serving them was hopeless from the start. */
    uint64_t shedAdmissionDeadline = 0;

    /** Items whose deadline expired while they waited in the queue. */
    uint64_t deadlineShedQueue = 0;

    /** Items cancelled mid-batch: the batch finished past their
     *  deadline, so the answer was abandoned instead of delivered
     *  late. */
    uint64_t deadlineCancelled = 0;

    /** Served items that met their deadline (defined only when the
     *  deadline is enabled; equals completedItems() then, because a
     *  late item is cancelled, never served). */
    uint64_t deadlineMet = 0;

    /** Brownout-ladder level changes during the run. */
    uint64_t brownoutTransitions = 0;

    /** Served items per ladder level (index = BrownoutLevel). */
    uint64_t brownoutItems[kBrownoutLevels] = {0, 0, 0, 0};

    /** Sum of per-item modeled quality over served items. */
    double qualitySum = 0.0;

    /** Ladder level at the end of the run. */
    uint32_t finalBrownoutLevel = 0;

    /** Wall-clock span of the simulation (seconds). */
    double duration = 0.0;

    /** Items that were actually served (met + missed the SLA). */
    uint64_t completedItems() const { return slaMet + slaMissed; }

    /** Items offered, whether served, shed, dropped, or cancelled. */
    uint64_t offeredItems() const
    {
        return completedItems() + shedItems + droppedLowPriority +
            shedAdmissionDeadline + deadlineShedQueue +
            deadlineCancelled;
    }

    /** Mean modeled quality of served items (1.0 = full fidelity). */
    double qualityScore() const;

    /** Served items that met their deadline, per second. */
    double deadlineGoodput() const;

    /** Items completing within SLA per second. All accessors are safe
     *  on empty runs (they return 0 rather than dividing by zero). */
    double goodThroughput() const;

    /** All completed items per second. */
    double totalThroughput() const;

    /** Fraction of served items meeting the SLA. */
    double slaFraction() const;

    /**
     * Count one settled item under its outcome: a served item adds its
     * latency and an SLA met/missed; every other outcome bumps its
     * shed/drop/cancel counter. Called by RunWindow::settle.
     */
    void settle(const obs::RequestRecord &rec);

    /**
     * Export this run's counters and latency distributions into
     * @p registry under the `serving.` prefix. Called once at the end
     * of a run (not incrementally) so repeated runs never double-count
     * stale shards; pair with MetricsRegistry::reset() between runs.
     */
    void exportTo(obs::MetricsRegistry &registry) const;

    /**
     * The one end-of-run summary formatter: renders the `serving.`
     * metrics of @p snap as the human-readable table every CLI command
     * prints. Non-serving metrics in the snapshot are ignored.
     */
    static std::string summarize(const obs::MetricsSnapshot &snap);
};

/**
 * A single-socket inference server running one model type on N
 * co-located workers with dynamic batching.
 */
class Server
{
  public:
    Server(const MachineSpec &machine, const ModelConfig &config,
           const TimerOptions &timer_options, const ServerOptions &options);

    /**
     * Open-loop run: Poisson item arrivals at @p items_per_second for
     * @p num_items items.
     */
    ServingStats runOpenLoop(double items_per_second, uint64_t num_items);

    /**
     * Closed-loop run: workers always have a full batch ready
     * (saturation throughput measurement).
     */
    ServingStats runClosedLoop(uint64_t batches_per_worker);

  private:
    double serviceBatch(size_t worker, int64_t batch, double now,
                        double *fc_seconds,
                        BrownoutLevel level = BrownoutLevel::Full,
                        double *fault_mult = nullptr);

    /** healthy/total replica fraction in (0, 1]; 1 when fully healthy. */
    double healthyFraction() const;

    MachineSpec machine_;
    ServerOptions options_;
    std::unique_ptr<CacheHierarchy> hier_;
    std::vector<std::unique_ptr<ModelTimer>> workers_;
    Rng jitter_rng_;
    Rng arrival_rng_;
    Rng priority_rng_;
    /** Present when the failure model is active. */
    std::unique_ptr<FaultInjector> injector_;
    /** Warm-up-calibrated full-batch service estimate (seconds). */
    double warmServiceEstimate_ = 0.0;
};

} // namespace recperf

#endif // RECPERF_SERVING_SERVER_HH

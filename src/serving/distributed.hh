/**
 * @file
 * Sharded (distributed) recommendation inference.
 *
 * Section VII notes the open-source benchmark "can be used to analyze
 * scheduling decisions, such as running recommendation models across
 * many nodes (distributed inference)". The standard sharding for
 * embedding-dominated models is table-wise: each node holds a subset of
 * the embedding tables, executes its SparseLengthsSum share in
 * parallel, and ships the pooled vectors to an aggregator that runs the
 * interaction and Top-FC. Latency = slowest shard + network transfer +
 * aggregator compute.
 */

#ifndef RECPERF_SERVING_DISTRIBUTED_HH
#define RECPERF_SERVING_DISTRIBUTED_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/stats.hh"
#include "obs/metrics.hh"
#include "obs/request_log.hh"
#include "resilience/deadline.hh"
#include "resilience/fault_injector.hh"
#include "resilience/policies.hh"
#include "resilience/replica_set.hh"
#include "resilience/sdc.hh"
#include "timing/model_timer.hh"

namespace recperf {

/** One network round trip between shards (kernel bypass). */
inline constexpr double kNetworkRttUs = 10.0;

/** Data-center network between shard nodes and the aggregator. */
struct NetworkConfig
{
    double bandwidthGBps = 3.0;   ///< per-link (25 GbE-class)
};

/**
 * Configuration of one sharded closed-loop run — the single entry
 * point. The defaults describe a clean run: no faults, no hedging, no
 * replica layer. Turning knobs composes: any FaultOptions activates the fault
 * schedule, engaging `replicas` activates the replica/failover layer
 * (breakers, health routing, warm-up — even with replicas.replicas ==
 * 1, which exercises that machinery without a failover target), and
 * `chaos` layers scripted fault windows on top.
 */
struct RunOptions
{
    /**
     * Warm-up iterations before measurement; they also calibrate the
     * auto hedge delay (p95 of clean shard times) and, with the
     * replica layer, the post-recovery warm-up factor. Clamped to >= 1
     * (>= 2 with replicas, whose calibration needs a cold and a steady
     * sample).
     */
    int warmupIters = 20;

    int measureIters = 100;

    /** Fault schedule of shard (or replica) failure processes. */
    FaultOptions faults;

    /** Timeout / retry / backoff mitigation. */
    RetryPolicy retry;

    /** Tail-latency hedging (delaySeconds == 0 auto-calibrates). */
    HedgePolicy hedge;

    /**
     * Replication of every shard. Disengaged (nullopt) runs the
     * single-copy path where a hedge assumes an implicit spare
     * replica; engaged runs ReplicaSet routing with breakers and
     * warm-up bookkeeping.
     */
    std::optional<ReplicaOptions> replicas;

    /** Optional scripted chaos windows (replica-layer runs only). */
    const ChaosSchedule *chaos = nullptr;

    /**
     * Per-inference deadline budget; 0 disables. With a budget, every
     * retry/hedge timeout is clamped to the remaining budget, attempts
     * fail fast (no retry) once the budget cannot cover the p50 of a
     * fresh attempt, replica routing skips copies whose EWMA latency
     * exceeds the budget, and an expired budget cancels the remaining
     * shard fan-out — counted as deadlineExpired, never as a late
     * completion.
     */
    double deadlineSeconds = 0.0;

    /**
     * The silent-data-corruption defense ladder (scrubbing, inline
     * sampled verification, output guards, canaries, quarantine and
     * repair). A controller is engaged when faults.corruption injects
     * events or any defense knob is on; at the defaults the serving
     * loop is byte-identical to a run without this subsystem.
     */
    SdcOptions sdc;

    /**
     * Optional reproducibility log: every drawn corruption event, node
     * up/down transition and load spike is appended as it happens.
     * Not owned; may be null.
     */
    FaultLog *faultLog = nullptr;

    /**
     * Optional compute-backend override: when engaged, every shard
     * timer (and the aggregator) is rebound to this backend at run
     * start. Disengaged keeps whatever TimerOptions::backend the
     * timers were constructed with.
     */
    std::optional<BackendConfig> backend;

    /**
     * Empty when ShardedInference::run can run these options, else
     * why not: measureIters > 0, an MTTR behind any MTBF, and the
     * replica (when engaged), retry, hedge, fault, deadline and SDC
     * validators. run() asserts it on the single-copy and the
     * replicated path alike; the CLI reports it as an argument error.
     */
    std::string validate() const;
};

/**
 * Everything one sharded run reports: the resilient accounting of a
 * fault-injected run with mitigation (timeouts, retries, hedging), the
 * replica layer's failover/breaker/warm-up bookkeeping, the SDC
 * defense counters, and the mean latency breakdown of completed
 * inferences.
 */
struct RunResult
{
    /** End-to-end latency of each *completed* inference (seconds). */
    LatencySample latency;

    /** Inferences whose shards all answered (possibly after retries or
     *  via a hedge). */
    uint64_t completed = 0;

    /** Inferences abandoned after retry exhaustion on some shard. */
    uint64_t failed = 0;

    /** Inferences cancelled because the deadline budget expired
     *  mid-fan-out — counted as deadline-shed, never as late
     *  completions. */
    uint64_t deadlineExpired = 0;

    /** Attempts skipped outright because the remaining budget could
     *  not cover the p50 of a fresh attempt (fail fast, no retry). */
    uint64_t deadlineFastFails = 0;

    uint64_t hedgesIssued = 0;

    /** Hedges that beat (or rescued) the primary request. */
    uint64_t hedgeWins = 0;

    /** Re-sends after a timeout or a down shard. */
    uint64_t retries = 0;

    /** Attempts abandoned at the timeout. */
    uint64_t timeouts = 0;

    /** Attempts that hit a shard in its down window. */
    uint64_t shardDownEncounters = 0;

    /** Duplicated shard compute bought by hedging (seconds). */
    double hedgeExtraSeconds = 0.0;

    /** Duplicated pooled-vector traffic bought by hedging (bytes). */
    double hedgeExtraBytes = 0.0;

    /** Time burnt in timed-out and failed attempts (seconds). */
    double wastedSeconds = 0.0;

    /** Virtual wall-clock span of the measured loop (seconds). */
    double duration = 0.0;

    // Replica layer (zero on the single-copy path).

    /** Requests completed by a replica other than the routed primary
     *  (down-rescue hedges and post-error re-routes). */
    uint64_t failovers = 0;

    /** Attempts for which every replica's breaker rejected the
     *  request. */
    uint64_t breakerRejects = 0;

    /** Breaker trips (closed/half-open -> open) across all replicas. */
    uint64_t breakerOpens = 0;

    /** Breaker recoveries (half-open -> closed) across all replicas. */
    uint64_t breakerCloses = 0;

    /** Requests admitted as half-open probes. */
    uint64_t probesAdmitted = 0;

    /** Routing decisions overridden because the primary replica's
     *  EWMA latency exceeded the remaining deadline budget (failover
     *  to the alternate, or abandonment when none fits). */
    uint64_t replicaSkips = 0;

    /** Extra service seconds paid to post-recovery cold replicas. */
    double warmupPenaltySeconds = 0.0;

    /** Resolved post-recovery multiplier (auto: cold/steady ratio). */
    double warmupFactorUsed = 1.0;

    // Mean breakdown of completed inferences.

    /** Mean completed-inference latency (slowest + network + agg). */
    double totalSeconds = 0.0;

    /** Mean winning slowest-shard time over completed inferences. */
    double slowestShardSeconds = 0.0;

    /** Pooled-vector all-to-one transfer time per inference. */
    double networkSeconds = 0.0;

    /** Mean aggregator (interaction + MLP) time per inference. */
    double aggregatorSeconds = 0.0;

    /** Pooled-embedding bytes crossing the network per inference. */
    double networkBytes = 0.0;

    /** SDC defense accounting; active only when a controller ran. */
    SdcStats sdc;

    /** Fraction of inferences that completed (deadline-cancelled ones
     *  count against availability like failures). */
    double availability() const;

    /** Completed inferences per second of virtual wall-clock. */
    double goodput() const;

    /**
     * Count one settled inference under its outcome: served adds its
     * latency to the completed ones, cancelled counts as deadline-shed,
     * failed as retry exhaustion. Called by RunWindow::settle.
     */
    void settle(const obs::RequestRecord &rec);

    /**
     * Export counters/latencies into @p registry under the `sharded.`
     * prefix. Like ServingStats::exportTo, called once per run.
     */
    void exportTo(obs::MetricsRegistry &registry) const;
};

/**
 * Times table-wise sharded inference of one model over N nodes of the
 * same machine type.
 */
class ShardedInference
{
  public:
    /**
     * @param num_nodes embedding shard nodes (>= 1). With one node the
     *        execution degenerates to the single-machine model (plus
     *        no network cost).
     */
    ShardedInference(const MachineSpec &machine, const ModelConfig &config,
                     uint32_t num_nodes, const NetworkConfig &network,
                     const TimerOptions &options);

    /**
     * Closed-loop run under @p options — the one entry point.
     *
     * Per inference, every shard request is resolved against the fault
     * schedule: a down shard fails fast and is retried (with
     * exponential backoff) up to RetryPolicy::maxRetries times; an
     * attempt outliving the timeout is abandoned and retried; when
     * hedging is on, a duplicate request goes to a replica after the
     * hedge delay and the shard's latency becomes min(primary, hedge).
     * Retry exhaustion on any shard fails the inference — it never
     * hangs.
     *
     * With `options.replicas` engaged, each shard's R replicas run
     * independent failure processes (process r of shard s is seeded
     * stream s*R + r) and a ReplicaSet routes each attempt by
     * ReplicaOptions::router among replicas whose circuit breaker
     * admits the request; hedges (and rescues of a down primary) go to
     * the router's second-best replica rather than a blind duplicate.
     * Errors and timeouts feed each replica's HealthTracker and
     * CircuitBreaker, so a dead replica is failed over after
     * `breaker.errorThreshold` strikes and probed back in once it
     * recovers — paying a cold-cache warm-up penalty derived from the
     * shard's own timing model. `options.chaos` layers scripted fault
     * windows (kills, rack failures, straggler storms) on top.
     *
     * Fully deterministic for fixed seeds; with the default options
     * (no faults, no hedge, no replica layer) the result's mean
     * latency breakdown is bit-identical to the legacy plain run.
     */
    RunResult run(const RunOptions &options);

    uint32_t numNodes() const;

  private:
    struct ShardOutcome
    {
        double elapsed = 0.0;
        bool ok = false;
        /** Abandoned by the deadline, not by retry exhaustion. */
        bool cancelled = false;
        /** Replica that served the winning attempt (0 single-copy). */
        uint32_t replica = 0;

        // Causal breakdown of `elapsed` for the request log. The
        // four duration fields plus serviceSeconds tile elapsed:
        // retryWait + hedgeWait + service + straggler + warmup.
        double serviceSeconds = 0.0;   ///< winning attempt's base time
        double stragglerSeconds = 0.0; ///< fault-multiplier excess
        double retryWaitSeconds = 0.0; ///< fail-fast/timeout/backoff
        double hedgeWaitSeconds = 0.0; ///< hedge delay on the winner
        double warmupSeconds = 0.0;    ///< cold-replica inflation
        uint16_t retries = 0;          ///< re-sends on this shard
        uint16_t hedges = 0;           ///< hedges fired on this shard
        uint16_t hedgeWins = 0;        ///< hedges that won or rescued
        bool hedgeWon = false;         ///< winner was the hedge
        bool deadlineClamped = false;  ///< budget bound a timeout
        uint32_t breakerRejects = 0;   ///< all-breakers-open rejects
        double healthEwma = 0.0;       ///< winner's EWMA after success
    };

    /**
     * Deadline context threaded through one inference's fan-out: the
     * budget anchored at the inference's issue time, the calibrated
     * p50 of a fresh attempt, and whether a shard already gave up on
     * the budget (so sibling shards stop too).
     */
    struct DeadlineCtx
    {
        Deadline deadline;
        double freshP50 = 0.0;
        bool abandoned = false;
    };

    ShardOutcome resolveShard(FaultInjector &injector,
                              const RetryPolicy &retry,
                              const HedgePolicy &hedge,
                              double hedge_delay, uint32_t shard,
                              double base_seconds, double now,
                              DeadlineCtx &ctx,
                              const SdcController *sdc,
                              RunResult *result);

    ShardOutcome resolveReplicated(FaultInjector &injector,
                                   ReplicaSet &set,
                                   const RetryPolicy &retry,
                                   const HedgePolicy &hedge,
                                   double hedge_delay, uint32_t shard,
                                   double base_seconds, double now,
                                   const ChaosSchedule *chaos,
                                   DeadlineCtx &ctx,
                                   const SdcController *sdc,
                                   RunResult *result);

    /** Pooled-vector bytes one shard ships per inference. */
    double shardNetworkBytes(uint32_t shard) const;

    /** Network cost of one inference (all-to-one pooled vectors). */
    double networkSeconds(double *bytes_out) const;

    MachineSpec machine_;
    ModelConfig config_;
    NetworkConfig network_;
    TimerOptions options_;
    /** One timer per shard, holding that node's table subset (a
     *  round-robin deal). */
    std::vector<std::unique_ptr<ModelTimer>> shard_timers_;
    /** Timer for the aggregator's dense work (no tables). */
    std::unique_ptr<ModelTimer> agg_timer_;
};

} // namespace recperf

#endif // RECPERF_SERVING_DISTRIBUTED_HH

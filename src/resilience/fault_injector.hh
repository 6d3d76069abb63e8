/**
 * @file
 * Seeded fault injection for the serving layer.
 *
 * The paper's tail-latency study (§VI-A) shows that the p99 of
 * production recommendation serving is dominated by effects the clean
 * timing model does not produce on its own: co-location interference,
 * OS/scheduler noise, and transient node misbehaviour. FaultInjector
 * supplies those disturbances deterministically so mitigation policies
 * (timeouts, retries, hedged requests, load shedding) can be evaluated
 * reproducibly:
 *
 *  - stragglers: with probability p a service time is inflated by a
 *    Pareto-distributed slowdown (heavy right tail, as observed in
 *    datacenter traces);
 *  - transient shard failures: each shard alternates between up and
 *    down states with exponentially distributed time-to-failure (MTBF)
 *    and time-to-repair (MTTR);
 *  - load spikes: Poisson-arriving intervals during which every
 *    service time is inflated by a constant factor (antagonist jobs,
 *    §VI co-location).
 *
 * All randomness flows from one seed; the same seed and query sequence
 * yields bit-identical fault schedules.
 */

#ifndef RECPERF_RESILIENCE_FAULT_INJECTOR_HH
#define RECPERF_RESILIENCE_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hh"
#include "resilience/corruption.hh"
#include "trace/id_generator.hh"

namespace recperf {

/** Knobs of the failure model. */
struct FaultOptions
{
    /** Probability that a service-time sample is a straggler. */
    double stragglerProb = 0.0;

    /** Pareto tail shape of the straggler slowdown (> 1). */
    double stragglerAlpha = 1.5;

    /** Minimum slowdown factor of a straggler (Pareto scale, >= 1). */
    double stragglerMin = 2.0;

    /** Mean up-time of a shard before a transient failure; 0 disables
     *  shard failures. */
    double shardMtbfSeconds = 0.0;

    /** Mean repair time of a failed shard. */
    double shardMttrSeconds = 0.010;

    /** Load-spike arrivals per second; 0 disables spikes. */
    double spikeRatePerSec = 0.0;

    /** Length of one load spike. */
    double spikeDurationSeconds = 0.005;

    /** Service-time inflation while a spike is active. */
    double spikeFactor = 2.0;

    uint64_t seed = 2020;

    /** The fail-silent channel: seeded memory corruption. */
    CorruptionOptions corruption;

    /** True when any fail-stop fault channel is active (corruption is
     *  fail-silent and consumed by the SDC layer instead). */
    bool anyFaults() const
    {
        return stragglerProb > 0.0 || shardMtbfSeconds > 0.0 ||
            spikeRatePerSec > 0.0;
    }

    /** Empty when the options are sane, else a description (used by
     *  the CLI to reject bad values before constructing anything). */
    std::string validate() const;
};

/**
 * Deterministic fault source consulted by the serving layer.
 *
 * Queries carry the simulation clock so the up/down and spike renewal
 * processes unfold in simulated time. Processes advance lazily and
 * monotonically: a query earlier than a previously seen time reuses the
 * already-advanced state (queries within one inference are near-equal,
 * so this keeps the schedule deterministic without bookkeeping).
 */
class FaultInjector
{
  public:
    /**
     * @param num_shards independent shard failure processes to model;
     *        0 when only service perturbation is needed.
     */
    FaultInjector(const FaultOptions &options, uint32_t num_shards);

    /**
     * Multiplier (>= 1) to apply to a service time sampled at
     * simulation time @p now. Combines straggler and load-spike
     * inflation.
     */
    double serviceMultiplier(double now);

    /** Whether shard @p shard is serving requests at time @p now. */
    bool shardUp(uint32_t shard, double now);

    /**
     * Arm the memory-corruption channel against @p topology. Must be
     * called before drawCorruptionsUpTo() when corruption is enabled;
     * builds the Zipf row-targeting generators (one per shard-local
     * table, aligned with lookup popularity so hot rows are hit
     * proportionally more often).
     */
    void setCorruptionTopology(const CorruptionTopology &topology);

    /**
     * Poisson-arriving corruption events with time <= @p now, in
     * arrival order. Advances lazily and monotonically like the other
     * channels; every event is also appended to the fault log when one
     * is attached.
     */
    std::vector<CorruptionEvent> drawCorruptionsUpTo(double now);

    /**
     * Attach a reproducibility log; not owned, may be null. Corruption
     * events, node up/down transitions and load spikes are recorded as
     * they are drawn.
     */
    void setLog(FaultLog *log) { log_ = log; }

    /** Corruption events drawn so far. */
    uint64_t corruptionsInjected() const { return corruptions_; }

    /** Straggler slowdowns injected so far. */
    uint64_t stragglersInjected() const { return stragglers_; }

    /** Load spikes started so far. */
    uint64_t spikesStarted() const { return spikes_; }

    /** Queries answered "shard down" so far. */
    uint64_t downAnswers() const { return down_answers_; }

  private:
    struct ShardState
    {
        bool up = true;
        double nextTransition = 0.0;
        Rng rng{0};
    };

    void advanceSpikes(double now);
    CorruptionEvent drawCorruptionAt(double t);

    FaultOptions options_;
    Rng straggler_rng_;
    Rng spike_rng_;
    Rng corruption_rng_;
    std::vector<ShardState> shards_;

    bool in_spike_ = false;
    double next_spike_ = 0.0;
    double spike_end_ = 0.0;

    CorruptionTopology topology_;
    /** Zipf row generators, [shard][local table]; empty when row
     *  targeting is uniform (zipfAlpha == 0). */
    std::vector<std::vector<ZipfGen>> zipf_;
    bool corruption_armed_ = false;
    double next_corruption_ = -1.0; ///< < 0: first arrival not drawn

    FaultLog *log_ = nullptr;

    uint64_t stragglers_ = 0;
    uint64_t spikes_ = 0;
    uint64_t down_answers_ = 0;
    uint64_t corruptions_ = 0;
};

} // namespace recperf

#endif // RECPERF_RESILIENCE_FAULT_INJECTOR_HH

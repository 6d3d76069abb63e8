/**
 * @file
 * Virtual-time silent-data-corruption defense for sharded inference.
 *
 * Models the full detect-and-repair ladder over the corruption events
 * drawn by FaultInjector, in the same discrete-event clock the sharded
 * serving loop runs on:
 *
 *  - a background scrubber sweeps every replica's embedding rows once
 *    per scrub interval (checksum re-verification), which bounds
 *    detection latency by one period and taxes the shard's memory
 *    bandwidth while sweeping;
 *  - inline sampled verification checks the rows a lookup batch
 *    touches on a deterministic subset of batches, trading per-request
 *    overhead for early detection of hot-row corruption;
 *  - output guards + periodic canary queries (golden outputs) catch
 *    corrupted responses at the aggregation boundary before they
 *    escape;
 *  - detected rows are quarantined (served stale/zero at the brownout
 *    stale-embeddings quality score) while an asynchronous re-fetch
 *    from a modeled parameter store repairs them over a serialized
 *    transfer channel; when a replica's corruption density crosses a
 *    threshold the ladder escalates to a full drain + rehydrate, which
 *    flows through the existing ReplicaSet failover/warm-up path.
 *
 * Everything is seeded and deterministic; with the options at their
 * defaults no controller is constructed and the serving loop's
 * schedule, metrics and trace are byte-identical to a build without
 * this subsystem.
 */

#ifndef RECPERF_RESILIENCE_SDC_HH
#define RECPERF_RESILIENCE_SDC_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stats.hh"
#include "resilience/corruption.hh"
#include "resilience/fault_injector.hh"
#include "trace/id_generator.hh"

namespace recperf {

namespace obs {
class Tracer;
}

/** Knobs of the detection + recovery ladder. */
struct SdcOptions
{
    /** Background scrubber full-sweep period; 0 disables scrubbing. */
    double scrubIntervalSeconds = 0.0;

    /** Fraction of lookup batches verified inline, (0,1]; 0 off. */
    double inlineSampleRate = 0.0;

    /** NaN/inf/range + checksum-on-read guards at the aggregation
     *  boundary: no corrupted response escapes, at a per-response
     *  verification cost. */
    bool outputGuards = false;

    /** Period of canary queries with golden outputs; 0 disables. */
    double canaryIntervalSeconds = 0.0;

    /** Parameter-store round trip of one row re-fetch. */
    double repairRttSeconds = 200e-6;

    /** Parameter-store transfer bandwidth (serialized channel). */
    double repairBandwidthGBps = 1.0;

    /** Quarantined-row density that escalates a replica to full
     *  drain + rehydrate; 0 disables escalation. */
    double drainDensity = 0.0;

    /** Response quality while serving around quarantined rows;
     *  <= 0 resolves to the brownout stale-embeddings score. */
    double quarantineQuality = 0.0;

    /** True when any detection/recovery mechanism is on. */
    bool anyDefense() const
    {
        return scrubIntervalSeconds > 0.0 || inlineSampleRate > 0.0 ||
            outputGuards || canaryIntervalSeconds > 0.0;
    }

    /** Empty when sane, else a description (CLI rejects early). */
    std::string validate() const;
};

/** How a corruption event was detected. */
enum class DetectionChannel
{
    None = -1,
    Scrub = 0,
    Inline = 1,
    Guard = 2,
    Canary = 3,
};

/** Aggregate counters of one run's SDC activity. */
struct SdcStats
{
    bool active = false; ///< gates the integrity.* metrics export

    uint64_t injectedRows = 0; ///< embedding-row corruption events
    uint64_t injectedFc = 0;   ///< FC-weight corruption events
    uint64_t detected = 0;     ///< events detected, any channel
    uint64_t detectedScrub = 0;
    uint64_t detectedInline = 0;
    uint64_t detectedGuard = 0;
    uint64_t detectedCanary = 0;
    uint64_t clearedRows = 0;     ///< wiped by a repair before detection
    uint64_t quarantinedRows = 0; ///< quarantine entries created
    uint64_t repairs = 0;         ///< async row re-fetches completed
    uint64_t rehydrates = 0;      ///< replica drain+rehydrate cycles
    uint64_t rowsRehydrated = 0;  ///< rows wiped clean by rehydrates
    uint64_t corruptedServed = 0; ///< escapes: corrupted responses out
    uint64_t degradedServed = 0;  ///< responses touching quarantine
    uint64_t canaryRuns = 0;
    uint64_t scrubSweeps = 0; ///< completed full sweeps, all replicas

    double verifySeconds = 0.0; ///< inline + guard verification time
    double repairSeconds = 0.0; ///< transfer-channel busy time
    double qualitySum = 0.0;    ///< summed over completed inferences

    /** Injection-to-detection latency of detected events. */
    LatencySample detectionLatency;
};

/**
 * The per-run controller driven by ShardedInference::run.
 *
 * Call order per inference: beginInference (returns maintenance time
 * to add to the clock), onShardLookup per resolved shard,
 * then endInference on success or dropInference on cancel/failure.
 * finish() runs the scrubber one final period so every still-resident
 * corruption is detected within its bound.
 */
class SdcController
{
  public:
    /**
     * @param injector draws the corruption events; must outlive the
     *        controller and have the same topology armed.
     * @param batch dense batch size of one inference.
     * @param lookups_per_table pooled lookups per table per sample.
     */
    SdcController(const SdcOptions &options,
                  const CorruptionTopology &topology,
                  FaultInjector *injector, uint64_t lookup_seed,
                  int64_t batch, int64_t lookups_per_table);

    /** Wire measured/derived run constants after warm-up. */
    void calibrate(double fresh_p50_seconds, double stream_gbps);

    /** Route trace emission; @p lane_base is the first free virtual
     *  lane (one scrub lane per replica node + one repair lane). */
    void setTracer(obs::Tracer *tracer, int lane_base);

    /**
     * Advance injection, scrubbing, repair completion, canaries and
     * drain escalation to @p now; returns maintenance seconds (canary
     * executions) the caller adds to the virtual clock.
     */
    double beginInference(double now);

    /** Service-time multiplier (>= 1) while the scrubber competes for
     *  table bandwidth. */
    double serviceSlowdown() const { return scrub_slowdown_; }

    /** True while the replica is drained for rehydration. */
    bool replicaDrained(uint32_t shard, uint32_t replica,
                        double now) const;

    /**
     * Model one resolved shard lookup batch served by @p replica;
     * returns inline-verification seconds to add to the shard's
     * service time.
     */
    double onShardLookup(uint32_t shard, uint32_t replica, double now);

    /** Outcome of the aggregation boundary for one inference. */
    struct Boundary
    {
        double extraSeconds = 0.0; ///< guard checks + sync FC repair
        bool servedCorrupted = false;
        bool servedDegraded = false;
        double quality = 1.0;
    };

    /** Close out a completed inference at @p now (post-aggregation). */
    Boundary endInference(double now);

    /** A cancelled/failed inference serves nothing: discard scratch. */
    void dropInference();

    /** Run the scrubber one final period and drain the repair queue so
     *  every resident corruption resolves; call once, after the loop. */
    void finish(double now);

    const SdcStats &stats() const { return stats_; }

    /** Per-event records (injection + detection times), for studies. */
    struct EventRecord
    {
        CorruptionEvent event;
        double detectTime = -1.0; ///< < 0: never detected
        DetectionChannel channel = DetectionChannel::None;
        bool cleared = false; ///< wiped undetected by a rehydrate
    };

    const std::vector<EventRecord> &events() const { return events_; }

  private:
    struct NodeState
    {
        /** row key -> indices into events_ (undetected corruption). */
        std::unordered_map<int64_t, std::vector<size_t>> corrupted;
        /** row key -> repair completion time (quarantined). */
        std::unordered_map<int64_t, double> quarantined;
        double scrubPos = 0.0;     ///< sweep position in [0, shardRows)
        double scrubTime = 0.0;    ///< clock of the last sweep advance
        double sweepStart = 0.0;   ///< start time of the current sweep
        double drainUntil = -1.0;  ///< > now while rehydrating
        uint64_t batches = 0;      ///< lookup batches (inline sampling)
    };

    int64_t rowKey(int32_t table, int64_t row) const;
    NodeState &node(uint32_t shard, uint32_t replica);
    void applyEvent(const CorruptionEvent &ev, size_t index);
    void detectRow(NodeState &state, uint32_t node_index, int64_t key,
                   double now, DetectionChannel channel);
    double detectFc(double now, DetectionChannel channel);
    void scrubTo(double now);
    void completeRepairs(double now);
    double runCanary(double now);
    void checkDrain(double now);
    double rowBytes() const;

    SdcOptions options_;
    CorruptionTopology topology_;
    FaultInjector *injector_;
    int64_t batch_;
    int64_t lookups_per_table_;
    uint64_t every_n_; ///< inline: verify every Nth batch per node

    double fresh_p50_ = 0.0;
    double stream_gbps_ = 25.0;
    double scrub_slowdown_ = 1.0;

    obs::Tracer *tracer_ = nullptr;
    int lane_base_ = -1;

    std::vector<NodeState> nodes_; ///< [shard * replicas + replica]
    /** Lookup row generators, [shard][local table]. */
    std::vector<std::vector<ZipfGen>> lookup_gens_;
    std::vector<std::vector<ZipfGen>> canary_gens_;
    std::vector<std::vector<int64_t>> table_offsets_; ///< per shard

    /** FC corruption: row -> indices into events_ (undetected). */
    std::unordered_map<int64_t, std::vector<size_t>> fc_corrupted_;

    double channel_free_ = 0.0; ///< serialized repair-channel horizon
    double next_canary_ = -1.0;

    /** Per-inference scratch: what this inference touched. */
    struct Scratch
    {
        bool open = false;
        bool touched_quarantined = false;
        /** (node index, row key) of corrupted-undetected touches. */
        std::vector<std::pair<uint32_t, int64_t>> poisoned;
        int64_t draws = 0; ///< modeled row reads this inference
    } scratch_;

    std::vector<EventRecord> events_;
    SdcStats stats_;
};

} // namespace recperf

#endif // RECPERF_RESILIENCE_SDC_HH

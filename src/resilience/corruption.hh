/**
 * @file
 * Seeded memory-corruption model: the fail-silent fault axis.
 *
 * The fail-stop channels of FaultInjector (stragglers, shard crashes,
 * load spikes) all announce themselves through latency or
 * unavailability. Silent data corruption does not: a flipped DRAM bit
 * in an embedding row serves wrong rankings with perfect latency. This
 * header defines the corruption event stream — what gets hit, when,
 * and how — plus the JSONL reproducibility log. Events are *drawn*
 * here (FaultInjector) and *interpreted* either functionally
 * (ops/integrity.hh shields flip real bytes) or in virtual time
 * (resilience/sdc.hh models detection and repair).
 */

#ifndef RECPERF_RESILIENCE_CORRUPTION_HH
#define RECPERF_RESILIENCE_CORRUPTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ops/integrity.hh"

namespace recperf {

/** Knobs of the memory-corruption channel. */
struct CorruptionOptions
{
    /** Corruption events per second of virtual time; 0 disables. */
    double ratePerSec = 0.0;

    /**
     * Zipf skew of row targeting, aligned with lookup popularity so
     * hot-row corruption is testable (the Fig 14 skew); 0 targets
     * rows uniformly.
     */
    double zipfAlpha = 1.05;

    /** Fraction of events that are multi-bit bursts. */
    double multiBitFraction = 0.2;

    /** Fraction of events that are stuck-at rows. */
    double stuckRowFraction = 0.1;

    /** Fraction of events that hit FC weights instead of tables. */
    double fcFraction = 0.0;

    bool enabled() const { return ratePerSec > 0.0; }

    /** Empty when sane, else a description (CLI rejects early). */
    std::string validate() const;
};

/** One injected memory-corruption event. */
struct CorruptionEvent
{
    double time = 0.0; ///< virtual injection time (seconds)
    CorruptionKind kind = CorruptionKind::SingleBitFlip;
    uint32_t shard = 0;
    uint32_t replica = 0;
    int32_t table = -1; ///< local table index; -1 = FC weights
    int64_t row = 0;
    uint64_t bit = 0; ///< first flipped bit within the row
};

/**
 * What the corruption channel can hit: the sharded layout of the
 * embedding tables plus the (unsharded, aggregator-side) FC weights.
 */
struct CorruptionTopology
{
    uint32_t shards = 0;
    uint32_t replicas = 1;
    int64_t embDim = 0;

    /** Rows of each local table, per shard (round-robin deal). */
    std::vector<std::vector<int64_t>> tableRows;

    int64_t fcRows = 0;    ///< FC weight rows; 0 disables FC targeting
    int64_t fcRowBits = 0; ///< bits per FC weight row

    bool empty() const { return shards == 0; }

    /** Bits per stored embedding row (fp32). */
    int64_t rowBits() const { return embDim * 32; }

    /** Total embedding rows resident on one shard replica. */
    int64_t shardRows(uint32_t shard) const;
};

/**
 * Reproducibility log: every injected fault as one JSONL line, in
 * injection order. check_trace.py --fault-log cross-checks the
 * corruption lines against the exported integrity.* counters.
 */
class FaultLog
{
  public:
    void recordCorruption(const CorruptionEvent &event);

    /** Fail-stop channels ride along for a complete fault record. */
    void recordNodeTransition(uint32_t node, bool up, double time);
    void recordSpike(double time, double duration, double factor);

    /** Corruption events logged so far. */
    uint64_t corruptionCount() const { return corruptions_; }

    /** All events logged so far. */
    size_t size() const { return lines_.size(); }

    std::string toJsonl() const;

    /** Write the log; RP_ASSERTs on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    std::vector<std::string> lines_;
    uint64_t corruptions_ = 0;
};

} // namespace recperf

#endif // RECPERF_RESILIENCE_CORRUPTION_HH

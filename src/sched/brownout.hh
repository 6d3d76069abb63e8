/**
 * @file
 * SLO-driven brownout ladder: ordered graceful-degradation levels.
 *
 * Under sustained overload, collapsing (unbounded queues, blanket
 * shedding) loses every request; browning out trades a little modeled
 * quality for bounded latency. The ladder orders the degradations the
 * serving layer can apply per request, cheapest-first:
 *
 *   L0 Full              — full model, full candidate set
 *   L1 TruncateCandidates— score only a fraction of the candidate set
 *                          (smaller effective batch per request)
 *   L2 SkipTables        — additionally skip low-value embedding
 *                          tables (drop a fraction of the SLS work)
 *   L3 StaleEmbeddings   — serve from cached/stale pooled embeddings
 *                          (no SLS work at all)
 *
 * A BrownoutController picks the level by reading the SLO burn-rate
 * gauges (obs::TimeSeriesSampler, PR 5): it escalates one level when
 * the *short*-window burn rate crosses that level's threshold and
 * de-escalates when the *long*-window burn rate falls below a fraction
 * of it — classic multi-window hysteresis, so a transient spike climbs
 * the ladder fast but recovery is deliberate. A dwell time bounds the
 * transition rate in both directions (no flapping). Each level carries
 * a modeled quality score so runs can report the accuracy proxy they
 * traded away.
 *
 * The controller is pure state-machine arithmetic over virtual time —
 * deterministic and bit-identical across host thread counts.
 */

#ifndef RECPERF_SCHED_BROWNOUT_HH
#define RECPERF_SCHED_BROWNOUT_HH

#include <cstdint>
#include <string>

namespace recperf {

/** Degradation levels, ordered by increasing quality loss. */
enum class BrownoutLevel : int
{
    Full = 0,
    TruncateCandidates = 1,
    SkipTables = 2,
    StaleEmbeddings = 3,
};

/** Number of ladder levels (Full included). */
constexpr int kBrownoutLevels = 4;

const char *brownoutLevelName(BrownoutLevel level);

/** Ladder thresholds, hysteresis, and per-level degradation knobs. */
struct BrownoutOptions
{
    bool enabled = false;

    /**
     * Short-window burn rate at which the controller leaves L0. A burn
     * rate of 1.0 consumes the error budget exactly at the allowed
     * rate, so the default arms only under clear overload.
     */
    double enterBurn = 4.0;

    /** Threshold growth per level: enter(k) = enterBurn * growth^(k-1). */
    double escalationGrowth = 2.0;

    /**
     * De-escalate from level k once the long-window burn rate drops
     * below enter(k) * exitFraction (the hysteresis band).
     */
    double exitFraction = 0.5;

    /** Minimum virtual time between transitions (either direction). */
    double dwellSeconds = 0.02;

    /** Candidate-set fraction kept at L1 and above. */
    double truncateFraction = 0.5;

    /** Fraction of SLS (embedding) work skipped at L2. */
    double skipTableFraction = 0.5;

    /** Burn-rate windows of the controller's own sensor (its budget
     *  is obs::kSloErrorBudget). */
    double shortWindowSeconds = 0.1;
    double longWindowSeconds = 0.5;

    /** Short-window burn rate that triggers entry *into* @p level. */
    double enterThreshold(int level) const;

    /** Modeled quality retained by answers served at @p level. */
    double qualityScore(BrownoutLevel level) const;

    /** Empty string when sane, first problem otherwise (CLI-grade). */
    std::string validate() const;
};

/**
 * The per-run ladder state machine. Call update() at each decision
 * point (batch formation) with the current burn-rate readings; it
 * moves at most one level per call.
 */
class BrownoutController
{
  public:
    explicit BrownoutController(const BrownoutOptions &options);

    /** Re-evaluate the level at virtual time @p now. */
    BrownoutLevel update(double now, double burnShort, double burnLong);

    BrownoutLevel level() const
    {
        return static_cast<BrownoutLevel>(level_);
    }

    /** Level changes (either direction) since construction. */
    uint64_t transitions() const { return transitions_; }

  private:
    BrownoutOptions options_;
    int level_ = 0;
    bool moved_ = false;
    double lastTransition_ = 0.0;
    uint64_t transitions_ = 0;
};

} // namespace recperf

#endif // RECPERF_SCHED_BROWNOUT_HH

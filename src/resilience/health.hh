/**
 * @file
 * Per-replica health tracking for failure-aware routing.
 *
 * The replica router needs a cheap, continuously updated estimate of
 * how each replica is doing. HealthTracker folds two signals:
 *
 *  - an EWMA of observed service latencies (live traffic and probes
 *    alike), so a replica paying its post-recovery warm-up penalty or
 *    sitting in a straggler storm scores worse than a healthy peer;
 *  - consecutive-error counts (refused connections, timeouts), the
 *    input of the circuit breaker's trip decision.
 *
 * Trackers are plain accumulators driven by the simulation clock; all
 * determinism comes from the callers.
 */

#ifndef RECPERF_RESILIENCE_HEALTH_HH
#define RECPERF_RESILIENCE_HEALTH_HH

#include <cstdint>

namespace recperf {

/** Weight of the newest latency sample in the health EWMA. */
inline constexpr double kHealthEwmaAlpha = 0.2;

/** EWMA latency + error-streak accumulator for one replica. */
class HealthTracker
{
  public:
    /** Fold a completed request's latency observed at @p now. */
    void recordSuccess(double latency_seconds, double now);

    /** Fold a refused / timed-out request observed at @p now. */
    void recordError(double now);

    /** Smoothed service latency; 0 until the first success. */
    double ewmaSeconds() const { return ewma_; }

    /** Errors since the last success. */
    int consecutiveErrors() const { return consecutive_errors_; }

    uint64_t successes() const { return successes_; }
    uint64_t errors() const { return errors_; }

    /** Time of the most recent observation (success or error). */
    double lastEventTime() const { return last_event_; }

    /**
     * Routing score: lower is healthier. Replicas without history yet
     * score @p fallback_seconds so they are neither shunned nor
     * preferred before their first observation.
     */
    double score(double fallback_seconds) const
    {
        return successes_ > 0 ? ewma_ : fallback_seconds;
    }

  private:
    double ewma_ = 0.0;
    double last_event_ = 0.0;
    int consecutive_errors_ = 0;
    uint64_t successes_ = 0;
    uint64_t errors_ = 0;
};

} // namespace recperf

#endif // RECPERF_RESILIENCE_HEALTH_HH

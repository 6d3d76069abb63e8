/**
 * @file
 * Mitigation policies layered against injected faults.
 *
 * Each policy is a small plain-options struct consumed by the serving
 * layer:
 *
 *  - RetryPolicy: per-shard request timeout plus bounded retries with
 *    exponential backoff. Exhausted retries surface as a *failed*
 *    inference (never a hang).
 *  - HedgePolicy: issue a duplicate ("hedged") request to a replica
 *    once the primary has been outstanding longer than a p95-style
 *    delay; the effective latency is min(primary, hedge) at the cost
 *    of duplicated compute and network traffic (Dean & Barroso, "The
 *    Tail at Scale").
 *  - AdmissionOptions: shed an item at arrival when its predicted
 *    queue wait already consumes more than a budgeted fraction of the
 *    SLA — serving it would almost certainly miss, and it would drag
 *    queued items past the SLA with it.
 *  - DegradeOptions: under a deep backlog, serve smaller batches (to
 *    bound per-batch latency) and drop low-priority items instead of
 *    missing the SLA for everyone.
 */

#ifndef RECPERF_RESILIENCE_POLICIES_HH
#define RECPERF_RESILIENCE_POLICIES_HH

#include <cmath>
#include <cstdint>
#include <string>

namespace recperf {

/** Backoff before the first retry; grows kRetryBackoffMultiplier-fold
 *  every retry. */
inline constexpr double kRetryBackoffSeconds = 200e-6;

/** Growth of the retry backoff per retry. */
inline constexpr double kRetryBackoffMultiplier = 2.0;

/** Detection latency of a down shard (connection refused). */
inline constexpr double kFailFastSeconds = 20e-6;

/** Per-shard timeout + bounded retry with exponential backoff. */
struct RetryPolicy
{
    /** Abandon an attempt after this long; 0 waits out any straggler
     *  (failed shards still fail fast, so no policy ever hangs).
     *  When the request carries a Deadline, every attempt's effective
     *  timeout is this value clamped to the remaining budget
     *  (Deadline::clampTimeout), and no retry is issued once the
     *  budget cannot cover the p50 of a fresh attempt. */
    double timeoutSeconds = 0.0;

    /** Re-sends after the initial attempt. */
    int maxRetries = 2;

    /** Backoff inserted before retry number @p retry (0-based). */
    static double backoffBefore(int retry)
    {
        return kRetryBackoffSeconds *
            std::pow(kRetryBackoffMultiplier, retry);
    }
};

/** Hedged (duplicate) requests against a shard replica. */
struct HedgePolicy
{
    bool enabled = false;

    /** Outstanding time before the hedge is sent; 0 auto-calibrates to
     *  the p95 of the warmup shard service times. A hedge is skipped
     *  when the request's remaining deadline budget could not cover
     *  the delay — the duplicate would be wasted work. */
    double delaySeconds = 0.0;
};

/** SLA-aware admission control on the batching queue. */
struct AdmissionOptions
{
    bool enabled = false;

    /** Shed an item when its predicted wait exceeds this fraction of
     *  the SLA (the remainder is budget for service time). */
    double maxWaitFraction = 0.5;
};

/** Degraded-service mode under overload. */
struct DegradeOptions
{
    bool enabled = false;

    /** Enter degraded mode when the backlog exceeds this many maximum
     *  batches' worth of items. */
    double backlogFactor = 2.0;

    /** Batch cap while degraded (bounds per-batch latency). */
    int64_t degradedMaxBatch = 8;

    /** Fraction of items marked low priority; they are dropped (not
     *  served) while degraded. */
    double lowPriorityFraction = 0.0;
};

/**
 * CLI-grade validation: each returns an empty string when the policy
 * is sane and a human-readable description of the first problem
 * otherwise, so tools can reject nonsensical configurations with a
 * clear error instead of tripping an assertion mid-run.
 */
std::string validateRetryPolicy(const RetryPolicy &retry);

/** Cross-checks the hedge against the retry timeout (a hedge delay at
 *  or beyond the timeout would never fire). */
std::string validateHedgePolicy(const HedgePolicy &hedge,
                                const RetryPolicy &retry);

std::string validateAdmissionOptions(const AdmissionOptions &admission);

std::string validateDegradeOptions(const DegradeOptions &degrade);

} // namespace recperf

#endif // RECPERF_RESILIENCE_POLICIES_HH

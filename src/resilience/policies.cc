#include "resilience/policies.hh"

#include "core/logging.hh"

namespace recperf {

std::string
validateRetryPolicy(const RetryPolicy &retry)
{
    if (retry.timeoutSeconds < 0.0)
        return strprintf("timeout cannot be negative (got %g s); use 0 "
                         "to disable it", retry.timeoutSeconds);
    if (retry.maxRetries < 0)
        return strprintf("max retries cannot be negative (got %d)",
                         retry.maxRetries);
    return "";
}

std::string
validateHedgePolicy(const HedgePolicy &hedge, const RetryPolicy &retry)
{
    if (hedge.delaySeconds < 0.0)
        return strprintf("hedge delay cannot be negative (got %g s); "
                         "use 0 for auto p95", hedge.delaySeconds);
    if (hedge.enabled && hedge.delaySeconds > 0.0 &&
        retry.timeoutSeconds > 0.0 &&
        hedge.delaySeconds >= retry.timeoutSeconds) {
        return strprintf("hedge delay (%g s) must be below the request "
                         "timeout (%g s), or the hedge can never fire",
                         hedge.delaySeconds, retry.timeoutSeconds);
    }
    return "";
}

std::string
validateAdmissionOptions(const AdmissionOptions &admission)
{
    if (admission.enabled && (admission.maxWaitFraction <= 0.0 ||
                              admission.maxWaitFraction > 1.0)) {
        return strprintf("admission wait budget must be in (0,1] of the "
                         "SLA (got %g)", admission.maxWaitFraction);
    }
    return "";
}

std::string
validateDegradeOptions(const DegradeOptions &degrade)
{
    if (!degrade.enabled)
        return "";
    if (degrade.backlogFactor <= 0.0)
        return strprintf("degrade backlog factor must be positive "
                         "(got %g)", degrade.backlogFactor);
    if (degrade.degradedMaxBatch < 1)
        return strprintf("degraded batch cap must be >= 1 (got %lld)",
                         static_cast<long long>(degrade.degradedMaxBatch));
    if (degrade.lowPriorityFraction < 0.0 ||
        degrade.lowPriorityFraction > 1.0) {
        return strprintf("low-priority fraction %g out of [0,1]",
                         degrade.lowPriorityFraction);
    }
    return "";
}

} // namespace recperf

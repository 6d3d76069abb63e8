#include "resilience/health.hh"

namespace recperf {

void
HealthTracker::recordSuccess(double latency_seconds, double now)
{
    ewma_ = successes_ == 0
        ? latency_seconds
        : (1.0 - kHealthEwmaAlpha) * ewma_ +
            kHealthEwmaAlpha * latency_seconds;
    ++successes_;
    consecutive_errors_ = 0;
    last_event_ = now;
}

void
HealthTracker::recordError(double now)
{
    ++errors_;
    ++consecutive_errors_;
    last_event_ = now;
}

} // namespace recperf

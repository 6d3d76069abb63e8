/**
 * @file
 * The measurement window of a serving run, and the one place a
 * request's fate is written: Server::runOpenLoop and
 * ShardedInference::run settle every request's RequestRecord through
 * it, and settle() derives every view from that one record — outcome
 * counters, trace instant, SLO burn-rate feed, request log. Spans,
 * brownout transitions and SDC instants are facts about batches and
 * shards; the loops emit those.
 */

#ifndef RECPERF_SERVING_RUN_WINDOW_HH
#define RECPERF_SERVING_RUN_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <optional>

#include "obs/request_log.hh"

namespace recperf {

namespace obs {
class HwTelemetry;
class TimeSeriesSampler;
class Tracer;
} // namespace obs

class RunWindow
{
  public:
    /**
     * Name the lanes (see nameLanes), drop warm-up hardware telemetry,
     * time-series samples and request records, and latch which sinks
     * are on. @p sensor (not owned) gets the burn-rate feed too.
     */
    RunWindow(const char *lane0, const char *lane_prefix, size_t lanes,
              obs::TimeSeriesSampler *sensor = nullptr);

    /** When tracing, name lane 0 @p lane0 (if any) and lanes
     *  1..@p lanes "<lane_prefix> i". */
    static void nameLanes(const char *lane0, const char *lane_prefix,
                          size_t lanes);

    /** The global tracer while tracing is on; null otherwise. */
    obs::Tracer *tracer() const { return tracer_; }

    /**
     * Settle one request: @p counters.settle(rec), then the outcome's
     * trace instant on @p lane at @p instant_at (default rec.finish),
     * the burn-rate feed and the request log.
     */
    template <typename Counters>
    void
    settle(const obs::RequestRecord &rec, Counters &counters,
           uint32_t lane = 0, std::optional<double> instant_at = {})
    {
        counters.settle(rec);
        emit(rec, lane, instant_at.value_or(rec.finish));
    }

    /** Sample the hardware counter tracks and the time series at
     *  virtual time @p t, which must not decrease. */
    void tick(double t);

  private:
    void emit(const obs::RequestRecord &rec, uint32_t lane, double t);

    obs::Tracer *tracer_ = nullptr;
    obs::HwTelemetry *telem_ = nullptr;
    obs::TimeSeriesSampler *sampler_ = nullptr;
    obs::TimeSeriesSampler *sensor_ = nullptr;
    obs::RequestLogger *rlog_ = nullptr;
};

} // namespace recperf

#endif // RECPERF_SERVING_RUN_WINDOW_HH

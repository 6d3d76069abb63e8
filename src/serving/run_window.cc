#include "serving/run_window.hh"

#include <iterator>

#include "core/logging.hh"
#include "obs/hw_counters.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sched/brownout.hh"

namespace recperf {

static_assert(obs::kRecordBrownoutLevels == kBrownoutLevels,
              "request records must carry every brownout level");

namespace {

/** What settling one outcome writes beyond the counters and the log. */
struct Settlement
{
    const char *category; ///< trace instant category; null: no instant
    const char *instant;  ///< trace instant name
    bool feedsBurn;       ///< observed by the SLO burn-rate windows
};

/**
 * Indexed by RequestOutcome. Admission sheds and low-priority drops
 * feed neither the burn-rate windows nor the brownout sensor; every
 * other outcome feeds both.
 */
constexpr Settlement kSettlement[] = {
    /* Served */ {nullptr, nullptr, true},
    /* ShedAdmission */ {"serve", "shed", false},
    /* ShedAdmissionDeadline */ {"deadline", "shed_admission", true},
    /* ShedDeadlineQueue */ {"deadline", "expired_queue", true},
    /* Cancelled */ {"deadline", "cancelled", true},
    /* DroppedLowPriority */ {"serve", "drop_low_priority", false},
    /* Failed */ {"shard", "inference_failed", true},
};
static_assert(std::size(kSettlement) == obs::kNumRequestOutcomes,
              "one settlement row per request outcome");

} // namespace

RunWindow::RunWindow(const char *lane0, const char *lane_prefix,
                     size_t lanes, obs::TimeSeriesSampler *sensor)
    : sensor_(sensor)
{
    nameLanes(lane0, lane_prefix, lanes);
    obs::Tracer &tracer = obs::Tracer::global();
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    obs::TimeSeriesSampler &sampler = obs::TimeSeriesSampler::global();
    obs::RequestLogger &rlog = obs::RequestLogger::global();
    if (tracer.enabled())
        tracer_ = &tracer;
    if (telem.enabled())
        telem.reset();
    // Counter tracks are trace events: nothing to emit untraced.
    if (telem.enabled() && tracer_)
        telem_ = &telem;
    if (sampler.enabled()) {
        sampler.reset();
        sampler_ = &sampler;
    }
    if (rlog.enabled()) {
        rlog.reset();
        rlog_ = &rlog;
    }
}

void
RunWindow::nameLanes(const char *lane0, const char *lane_prefix,
                     size_t lanes)
{
    obs::Tracer &tracer = obs::Tracer::global();
    if (!tracer.enabled())
        return;
    if (lane0)
        tracer.nameLane(0, lane0);
    for (size_t i = 0; i < lanes; ++i) {
        tracer.nameLane(static_cast<uint32_t>(1 + i),
                        strprintf("%s %zu", lane_prefix, i));
    }
}

void
RunWindow::emit(const obs::RequestRecord &rec, uint32_t lane, double t)
{
    const Settlement &s = kSettlement[static_cast<size_t>(rec.outcome)];
    if (tracer_ && s.category)
        tracer_->instant(s.category, s.instant, t, lane);
    for (obs::TimeSeriesSampler *burn : {sampler_, sensor_}) {
        if (burn && s.feedsBurn)
            burn->observeItem(rec.finish, rec.latency, rec.slaViolated);
    }
    if (rlog_)
        rlog_->record(rec);
}

void
RunWindow::tick(double t)
{
    if (telem_)
        telem_->emitCounters(*tracer_, t, 0);
    if (sampler_)
        sampler_->tick(t);
}

} // namespace recperf

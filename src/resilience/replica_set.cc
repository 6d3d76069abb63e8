#include "resilience/replica_set.hh"

#include <algorithm>

#include "core/logging.hh"
#include "obs/trace.hh"

namespace recperf {

bool
routerPolicyFromName(const std::string &name, RouterPolicy *policy)
{
    if (name == "primary-first" || name == "primary")
        *policy = RouterPolicy::PrimaryFirst;
    else if (name == "least-loaded")
        *policy = RouterPolicy::LeastLoaded;
    else if (name == "p2c" || name == "power-of-two")
        *policy = RouterPolicy::PowerOfTwo;
    else
        return false;
    return true;
}

const char *
routerPolicyName(RouterPolicy policy)
{
    switch (policy) {
      case RouterPolicy::PrimaryFirst:
        return "primary-first";
      case RouterPolicy::LeastLoaded:
        return "least-loaded";
      case RouterPolicy::PowerOfTwo:
        return "p2c";
    }
    return "?";
}

std::string
ReplicaOptions::validate() const
{
    if (replicas < 1)
        return strprintf("need at least one replica per shard (got %u)",
                         replicas);
    if (warmupSeconds < 0.0)
        return strprintf("warm-up window cannot be negative (got %g s)",
                         warmupSeconds);
    if (warmupFactor != 0.0 && warmupFactor < 1.0)
        return strprintf("warm-up factor must be >= 1 (or 0 = auto), "
                         "got %g", warmupFactor);
    return breaker.validate();
}

void
ChaosSchedule::add(const ChaosEvent &event)
{
    RP_ASSERT(event.end >= event.start,
              "chaos window ends (%g) before it starts (%g)", event.end,
              event.start);
    events_.push_back(event);
}

ChaosSchedule
ChaosSchedule::random(uint64_t seed, uint32_t num_shards,
                      uint32_t replicas, double horizon_seconds,
                      uint32_t events, double mean_duration_seconds)
{
    RP_ASSERT(num_shards >= 1 && replicas >= 1,
              "chaos needs at least one shard and replica");
    Rng rng(seed ^ 0xc4a05c4a05ULL);
    ChaosSchedule schedule;
    for (uint32_t i = 0; i < events; ++i) {
        ChaosEvent e;
        e.start = rng.nextDouble() * horizon_seconds;
        e.end = e.start +
            mean_duration_seconds * (0.2 + 0.8 * rng.nextDouble());
        switch (i % 3) {
          case 0:
            e.kind = ChaosEvent::Kind::KillReplica;
            e.shard = static_cast<uint32_t>(rng.nextBelow(num_shards));
            e.replica = static_cast<uint32_t>(rng.nextBelow(replicas));
            break;
          case 1:
            e.kind = ChaosEvent::Kind::KillRack;
            e.replica = static_cast<uint32_t>(rng.nextBelow(replicas));
            break;
          default:
            e.kind = ChaosEvent::Kind::StragglerStorm;
            e.factor = 2.0 + 4.0 * rng.nextDouble();
            break;
        }
        schedule.add(e);
    }
    return schedule;
}

bool
ChaosSchedule::forcedDown(uint32_t shard, uint32_t replica,
                          double now) const
{
    for (const ChaosEvent &e : events_) {
        if (now < e.start || now >= e.end)
            continue;
        if (e.kind == ChaosEvent::Kind::KillReplica &&
            e.shard == shard && e.replica == replica)
            return true;
        if (e.kind == ChaosEvent::Kind::KillRack && e.replica == replica)
            return true;
    }
    return false;
}

double
ChaosSchedule::serviceFactor(double now) const
{
    double factor = 1.0;
    for (const ChaosEvent &e : events_) {
        if (e.kind == ChaosEvent::Kind::StragglerStorm &&
            now >= e.start && now < e.end)
            factor *= e.factor;
    }
    return factor;
}

ReplicaSet::ReplicaSet(uint32_t shard, const ReplicaOptions &options,
                       double warmup_factor)
    : shard_(shard), options_(options),
      warmup_factor_(std::max(warmup_factor, 1.0)),
      route_rng_(options.seed ^ (0x5e7a11c0deULL * (shard + 1)))
{
    std::string err = options_.validate();
    RP_ASSERT(err.empty(), "%s", err.c_str());
    BreakerOptions breaker = options_.breaker;
    breaker.seed = options_.seed ^ (0x11ca1b2ea3ULL * (shard + 1));
    for (uint32_t r = 0; r < options_.replicas; ++r)
        replicas_.emplace_back(breaker, r);
}

double
ReplicaSet::loadOf(const Replica &replica, double now) const
{
    return std::max(replica.busyUntil - now, 0.0);
}

bool
ReplicaSet::better(const Replica &a, const Replica &b, double now) const
{
    double load_a = loadOf(a, now);
    double load_b = loadOf(b, now);
    if (load_a != load_b)
        return load_a < load_b;
    // Health tiebreak: prefer the lower smoothed latency. Replicas
    // without history score as the peer's EWMA, i.e. neutrally.
    double fallback = std::max(a.health.ewmaSeconds(),
                               b.health.ewmaSeconds());
    return a.health.score(fallback) < b.health.score(fallback);
}

ReplicaSet::Pick
ReplicaSet::route(double now)
{
    // Consult every breaker first: open ones are failed over, and a
    // half-open one consumes its seeded probe-admission coin.
    std::vector<uint32_t> admitted;
    admitted.reserve(replicas_.size());
    for (uint32_t r = 0; r < replicas_.size(); ++r) {
        BreakerState before = replicas_[r].breaker.state();
        bool allow = replicas_[r].breaker.allowRequest(now);
        noteBreakerTransition(r, before, now);
        if (allow)
            admitted.push_back(r);
    }
    if (admitted.empty())
        return {};

    Pick pick;
    if (options_.router == RouterPolicy::PowerOfTwo &&
        admitted.size() >= 2) {
        // Two seeded candidates; the loser is the natural hedge target.
        uint64_t i = route_rng_.nextBelow(admitted.size());
        uint64_t j = route_rng_.nextBelow(admitted.size() - 1);
        if (j >= i)
            ++j;
        uint32_t a = admitted[i];
        uint32_t b = admitted[j];
        bool a_wins = better(replicas_[a], replicas_[b], now);
        pick.replica = static_cast<int>(a_wins ? a : b);
        pick.alternate = static_cast<int>(a_wins ? b : a);
        return pick;
    }

    auto ahead = [&](uint32_t a, uint32_t b) {
        if (options_.router == RouterPolicy::PrimaryFirst)
            return a < b;
        if (better(replicas_[a], replicas_[b], now))
            return true;
        if (better(replicas_[b], replicas_[a], now))
            return false;
        return a < b;
    };
    uint32_t best = admitted.front();
    for (uint32_t r : admitted) {
        if (r != best && ahead(r, best))
            best = r;
    }
    pick.replica = static_cast<int>(best);
    for (uint32_t r : admitted) {
        if (r == best)
            continue;
        if (pick.alternate < 0 ||
            ahead(r, static_cast<uint32_t>(pick.alternate)))
            pick.alternate = static_cast<int>(r);
    }
    return pick;
}

void
ReplicaSet::recordSuccess(uint32_t replica, double latency, double now)
{
    RP_ASSERT(replica < replicas_.size(), "replica %u out of range",
              replica);
    Replica &r = replicas_[replica];
    r.health.recordSuccess(latency, now);
    BreakerState before = r.breaker.state();
    r.breaker.onSuccess(now);
    noteBreakerTransition(replica, before, now);
    r.busyUntil = std::max(r.busyUntil, now) + latency;
}

void
ReplicaSet::recordError(uint32_t replica, double now)
{
    RP_ASSERT(replica < replicas_.size(), "replica %u out of range",
              replica);
    Replica &r = replicas_[replica];
    r.health.recordError(now);
    BreakerState before = r.breaker.state();
    r.breaker.onFailure(now);
    noteBreakerTransition(replica, before, now);
}

void
ReplicaSet::noteBreakerTransition(uint32_t replica, BreakerState before,
                                  double now) const
{
    obs::Tracer &tracer = obs::Tracer::global();
    if (!tracer.enabled())
        return;
    BreakerState after = replicas_[replica].breaker.state();
    if (after == before)
        return;
    tracer.instant(
        "resilience",
        strprintf("breaker s%u/r%u %s", shard_, replica,
                  breakerStateName(after)),
        now, 1 + shard_,
        {{"from", breakerStateName(before)},
         {"to", breakerStateName(after)}});
}

bool
ReplicaSet::observeUp(uint32_t replica, bool up, double now)
{
    RP_ASSERT(replica < replicas_.size(), "replica %u out of range",
              replica);
    Replica &r = replicas_[replica];
    if (up && !r.observedUp)
        r.recoveredAt = now; // back from a down window: start cold
    r.observedUp = up;
    return up;
}

double
ReplicaSet::warmupMultiplier(uint32_t replica, double now) const
{
    RP_ASSERT(replica < replicas_.size(), "replica %u out of range",
              replica);
    const Replica &r = replicas_[replica];
    if (r.recoveredAt < 0.0 || options_.warmupSeconds <= 0.0 ||
        warmup_factor_ <= 1.0)
        return 1.0;
    double progress = (now - r.recoveredAt) / options_.warmupSeconds;
    if (progress >= 1.0)
        return 1.0;
    return 1.0 + (warmup_factor_ - 1.0) * (1.0 - std::max(progress, 0.0));
}

const HealthTracker &
ReplicaSet::health(uint32_t replica) const
{
    return replicas_.at(replica).health;
}

uint64_t
ReplicaSet::breakerOpens() const
{
    uint64_t n = 0;
    for (const Replica &r : replicas_)
        n += r.breaker.timesOpened();
    return n;
}

uint64_t
ReplicaSet::breakerCloses() const
{
    uint64_t n = 0;
    for (const Replica &r : replicas_)
        n += r.breaker.timesClosed();
    return n;
}

uint64_t
ReplicaSet::probesAdmitted() const
{
    uint64_t n = 0;
    for (const Replica &r : replicas_)
        n += r.breaker.probesAdmitted();
    return n;
}

} // namespace recperf

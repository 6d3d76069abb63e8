#include "sched/brownout.hh"

#include <cmath>

#include "core/logging.hh"

namespace recperf {

const char *
brownoutLevelName(BrownoutLevel level)
{
    switch (level) {
    case BrownoutLevel::Full:
        return "full";
    case BrownoutLevel::TruncateCandidates:
        return "truncate_candidates";
    case BrownoutLevel::SkipTables:
        return "skip_tables";
    case BrownoutLevel::StaleEmbeddings:
        return "stale_embeddings";
    }
    return "unknown";
}

double
BrownoutOptions::enterThreshold(int level) const
{
    if (level <= 0)
        return 0.0;
    return enterBurn * std::pow(escalationGrowth, level - 1);
}

double
BrownoutOptions::qualityScore(BrownoutLevel level) const
{
    // Modeled fidelity of the accuracy proxy per level. Truncating the
    // candidate set costs little (the head of the ranking survives);
    // stale embeddings cost the most (features are out of date).
    switch (level) {
    case BrownoutLevel::Full:
        return 1.0;
    case BrownoutLevel::TruncateCandidates:
        return 0.97;
    case BrownoutLevel::SkipTables:
        return 0.92;
    case BrownoutLevel::StaleEmbeddings:
        return 0.85;
    }
    return 1.0;
}

std::string
BrownoutOptions::validate() const
{
    if (!enabled)
        return "";
    if (!(enterBurn > 0.0) || std::isnan(enterBurn))
        return strprintf("brownout enter burn rate must be positive "
                         "(got %g)", enterBurn);
    if (!(escalationGrowth >= 1.0))
        return strprintf("brownout escalation growth must be >= 1 "
                         "(got %g)", escalationGrowth);
    if (!(exitFraction > 0.0) || exitFraction >= 1.0)
        return strprintf("brownout exit fraction must be in (0, 1) "
                         "(got %g)", exitFraction);
    if (dwellSeconds < 0.0 || std::isnan(dwellSeconds))
        return strprintf("brownout dwell cannot be negative (got %g s)",
                         dwellSeconds);
    if (!(truncateFraction > 0.0) || truncateFraction > 1.0)
        return strprintf("brownout truncate fraction must be in (0, 1] "
                         "(got %g)", truncateFraction);
    if (skipTableFraction < 0.0 || skipTableFraction > 1.0)
        return strprintf("brownout skip-table fraction must be in "
                         "[0, 1] (got %g)", skipTableFraction);
    if (!(shortWindowSeconds > 0.0) || !(longWindowSeconds > 0.0))
        return "brownout burn-rate windows must be positive";
    if (shortWindowSeconds > longWindowSeconds)
        return strprintf("brownout short window (%g s) cannot exceed "
                         "the long window (%g s)",
                         shortWindowSeconds, longWindowSeconds);
    return "";
}

BrownoutController::BrownoutController(const BrownoutOptions &options)
    : options_(options)
{
}

BrownoutLevel
BrownoutController::update(double now, double burnShort, double burnLong)
{
    if (!options_.enabled)
        return BrownoutLevel::Full;
    // The dwell gate only applies after the first transition, so a run
    // starting already on fire escalates immediately.
    bool dwelled = !moved_ ||
        now - lastTransition_ >= options_.dwellSeconds;
    if (dwelled) {
        if (level_ + 1 < kBrownoutLevels &&
            burnShort >= options_.enterThreshold(level_ + 1)) {
            ++level_;
            ++transitions_;
            moved_ = true;
            lastTransition_ = now;
        } else if (level_ > 0 &&
                   burnLong <= options_.enterThreshold(level_) *
                       options_.exitFraction) {
            --level_;
            ++transitions_;
            moved_ = true;
            lastTransition_ = now;
        }
    }
    return static_cast<BrownoutLevel>(level_);
}

} // namespace recperf

#include "resilience/corruption.hh"

#include <cstdio>
#include <numeric>

#include "core/logging.hh"

namespace recperf {

std::string
CorruptionOptions::validate() const
{
    if (ratePerSec < 0.0)
        return strprintf("corruption rate cannot be negative (got %g/s)",
                         ratePerSec);
    if (zipfAlpha < 0.0)
        return strprintf("corruption zipf skew cannot be negative "
                         "(got %g)", zipfAlpha);
    if (multiBitFraction < 0.0 || multiBitFraction > 1.0)
        return strprintf("multi-bit fraction %g out of [0,1]",
                         multiBitFraction);
    if (stuckRowFraction < 0.0 || stuckRowFraction > 1.0)
        return strprintf("stuck-row fraction %g out of [0,1]",
                         stuckRowFraction);
    if (multiBitFraction + stuckRowFraction > 1.0)
        return strprintf("multi-bit + stuck-row fractions exceed 1 "
                         "(%g + %g)", multiBitFraction, stuckRowFraction);
    if (fcFraction < 0.0 || fcFraction > 1.0)
        return strprintf("FC fraction %g out of [0,1]", fcFraction);
    return "";
}

int64_t
CorruptionTopology::shardRows(uint32_t shard) const
{
    RP_ASSERT(shard < tableRows.size(), "shard %u out of topology",
              shard);
    const std::vector<int64_t> &tables = tableRows[shard];
    return std::accumulate(tables.begin(), tables.end(),
                           static_cast<int64_t>(0));
}

void
FaultLog::recordCorruption(const CorruptionEvent &event)
{
    lines_.push_back(strprintf(
        "{\"kind\":\"%s\",\"t\":%.9f,\"shard\":%u,\"replica\":%u,"
        "\"table\":%d,\"row\":%lld,\"bit\":%llu}",
        corruptionKindName(event.kind), event.time, event.shard,
        event.replica, event.table, static_cast<long long>(event.row),
        static_cast<unsigned long long>(event.bit)));
    ++corruptions_;
}

void
FaultLog::recordNodeTransition(uint32_t node, bool up, double time)
{
    lines_.push_back(strprintf(
        "{\"kind\":\"%s\",\"t\":%.9f,\"node\":%u}",
        up ? "node_up" : "node_down", time, node));
}

void
FaultLog::recordSpike(double time, double duration, double factor)
{
    lines_.push_back(strprintf(
        "{\"kind\":\"load_spike\",\"t\":%.9f,\"duration\":%.9f,"
        "\"factor\":%g}",
        time, duration, factor));
}

std::string
FaultLog::toJsonl() const
{
    std::string out;
    for (const std::string &line : lines_) {
        out += line;
        out += '\n';
    }
    return out;
}

void
FaultLog::writeFile(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    RP_ASSERT(f != nullptr, "cannot open %s for writing", path.c_str());
    std::string body = toJsonl();
    size_t written = std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    RP_ASSERT(written == body.size(), "short write to %s", path.c_str());
}

} // namespace recperf

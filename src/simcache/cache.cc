#include "simcache/cache.hh"

#include <algorithm>
#include <bit>

#include "core/logging.hh"

namespace recperf {

Cache::Cache(std::string name, uint64_t size_bytes, uint32_t associativity,
             uint32_t line_bytes)
    : name_(std::move(name)), size_bytes_(size_bytes), assoc_(associativity),
      line_bytes_(line_bytes)
{
    RP_ASSERT(line_bytes_ > 0 && assoc_ > 0, "bad cache geometry");
    // Shift-based line addressing; 2+ byte lines keep every line address
    // below 2^63, so none collides with the empty-way sentinel.
    RP_ASSERT(line_bytes_ >= 2 && std::has_single_bit(line_bytes_),
              "%s: line size %u is not a power of two of at least 2 bytes",
              name_.c_str(), line_bytes_);
    RP_ASSERT(size_bytes_ % (static_cast<uint64_t>(line_bytes_) * assoc_) == 0,
              "%s: size %llu not divisible by line*assoc",
              name_.c_str(), static_cast<unsigned long long>(size_bytes_));
    num_sets_ = size_bytes_ / line_bytes_ / assoc_;
    RP_ASSERT(num_sets_ > 0, "%s: zero sets", name_.c_str());
    line_shift_ = static_cast<uint32_t>(std::countr_zero(line_bytes_));
    pow2_sets_ = std::has_single_bit(num_sets_);
    if (pow2_sets_)
        set_mask_ = num_sets_ - 1;
    else
        fastmod_m_ = ~static_cast<unsigned __int128>(0) / num_sets_ + 1;
    // Every tag starts empty. Stamps start at kEmpty too: they are only
    // compared once a set is full, by which time each was written.
    blocks_.assign(num_sets_ * 2 * assoc_, kEmpty);
}

bool
Cache::access(uint64_t addr)
{
    ++stats_.accesses;
    ++tick_;
    size_t w = find(lineAddr(addr));
    if (w != npos) {
        stamp(w) = tick_;
        ++stats_.hits;
        return true;
    }
    ++stats_.misses;
    return false;
}

bool
Cache::contains(uint64_t addr) const
{
    return find(lineAddr(addr)) != npos;
}

std::optional<uint64_t>
Cache::fill(uint64_t addr)
{
    ++tick_;
    const uint64_t line = lineAddr(addr);
    const size_t base = setBase(line);

    // One pass: a hit refreshes recency; otherwise remember the first
    // empty way and the LRU way (used only when the set is full).
    size_t empty = npos;
    size_t lru = base;
    for (size_t w = base; w < base + assoc_; ++w) {
        if (blocks_[w] == line) {
            stamp(w) = tick_;
            return std::nullopt;
        }
        if (blocks_[w] == kEmpty && empty == npos)
            empty = w;
        if (stamp(w) < stamp(lru))
            lru = w;
    }

    std::optional<uint64_t> evicted;
    size_t way = empty;
    if (way == npos) {
        way = lru;
        evicted = blocks_[way] << line_shift_;
        ++stats_.evictions;
    }
    blocks_[way] = line;
    stamp(way) = tick_;
    return evicted;
}

bool
Cache::invalidate(uint64_t addr)
{
    if (!extract(addr))
        return false;
    ++stats_.backInvalidations;
    return true;
}

bool
Cache::extract(uint64_t addr)
{
    size_t w = find(lineAddr(addr));
    if (w == npos)
        return false;
    blocks_[w] = kEmpty;
    return true;
}

std::vector<uint64_t>
Cache::residentLines() const
{
    std::vector<uint64_t> lines;
    for (size_t base = 0; base < blocks_.size(); base += 2 * assoc_) {
        for (size_t w = base; w < base + assoc_; ++w) {
            if (blocks_[w] != kEmpty)
                lines.push_back(blocks_[w] << line_shift_);
        }
    }
    return lines;
}

} // namespace recperf

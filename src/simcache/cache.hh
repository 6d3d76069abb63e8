/**
 * @file
 * A single set-associative cache with LRU replacement.
 *
 * This is the building block of the simulated Haswell/Broadwell/Skylake
 * memory hierarchies. It tracks tags only (no data): the functional
 * model results never depend on it, but hit/miss behaviour — and hence
 * the paper's MPKI and latency effects — does.
 */

#ifndef RECPERF_SIMCACHE_CACHE_HH
#define RECPERF_SIMCACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace recperf {

/** Hit/miss and maintenance counters for one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t backInvalidations = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }

    void
    reset()
    {
        *this = CacheStats();
    }

    CacheStats &
    operator+=(const CacheStats &o)
    {
        accesses += o.accesses;
        hits += o.hits;
        misses += o.misses;
        evictions += o.evictions;
        backInvalidations += o.backInvalidations;
        return *this;
    }
};

/**
 * Set-associative, LRU, tag-only cache model.
 *
 * Addresses are byte addresses; the cache operates on aligned lines of
 * lineBytes() granularity.
 *
 * Storage is one flat array of per-set blocks: a set's associativity()
 * tags, then their LRU stamps, so a probe and its stamp update touch
 * adjacent memory. An empty way holds the sentinel tag kEmpty (there is
 * no separate valid bit); a way's stamp is the global tick of its last
 * fill or hit. A fill takes the first empty way in way order, else the
 * way with the lowest stamp (the LRU line).
 */
class Cache
{
  public:
    /**
     * @param name label used in stats dumps, e.g. "L2".
     * @param size_bytes total capacity; must be a multiple of
     *        line_bytes * associativity.
     * @param associativity ways per set.
     * @param line_bytes line size (64 on all modeled machines); must be
     *        a power of two of at least 2 bytes.
     */
    Cache(std::string name, uint64_t size_bytes, uint32_t associativity,
          uint32_t line_bytes = 64);

    const std::string &name() const { return name_; }
    uint64_t sizeBytes() const { return size_bytes_; }
    uint32_t associativity() const { return assoc_; }
    uint32_t lineBytes() const { return line_bytes_; }
    uint64_t numSets() const { return num_sets_; }

    /**
     * Look up a line; on hit, refresh its LRU position. Counts as an
     * access in the stats. Does NOT allocate on miss — allocation
     * decisions belong to the hierarchy (inclusive vs. exclusive).
     *
     * @return true on hit.
     */
    bool access(uint64_t addr);

    /** Host-side hint: start loading @p addr's set. No model effect. */
    void
    hostPrefetch(uint64_t addr) const
    {
        __builtin_prefetch(&blocks_[setBase(lineAddr(addr))]);
    }

    /** Probe without touching LRU state or stats. */
    bool contains(uint64_t addr) const;

    /**
     * Insert a line, evicting the LRU line of the set if full.
     *
     * @return the byte address of the evicted line, if any.
     */
    std::optional<uint64_t> fill(uint64_t addr);

    /**
     * Remove a line if present (back-invalidation from an inclusive
     * outer level, or promotion out of an exclusive victim cache).
     *
     * @return true when the line was present.
     */
    bool invalidate(uint64_t addr);

    /**
     * Remove a line without charging a back-invalidation (used when an
     * exclusive LLC promotes a line up to a private L2 on hit).
     *
     * @return true when the line was present.
     */
    bool extract(uint64_t addr);

    /** Drop all lines; stats are preserved. */
    void flush();

    /** Number of currently valid lines. */
    uint64_t occupancy() const;

    /** Byte addresses of all resident lines (test/invariant hook). */
    std::vector<uint64_t> residentLines() const;

    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

  private:
    /** Tag of an empty way; line addresses stay below 2^63. */
    static constexpr uint64_t kEmpty = ~uint64_t{0};

    uint64_t lineAddr(uint64_t addr) const { return addr >> line_shift_; }

    /** Index into blocks_ of @p line's set block (its way-0 tag). */
    size_t
    setBase(uint64_t line) const
    {
        uint64_t set;
        if (pow2_sets_) {
            set = line & set_mask_;
        } else {
            // Lemire's fastmod: line % num_sets_ without a divide.
            using u128 = unsigned __int128;
            u128 low = fastmod_m_ * line;
            u128 bottom = (static_cast<uint64_t>(low) * u128{num_sets_}) >> 64;
            u128 top = (low >> 64) * u128{num_sets_};
            set = static_cast<uint64_t>((bottom + top) >> 64);
        }
        return static_cast<size_t>(set) * 2 * assoc_;
    }

    /** Index into blocks_ of the tag holding @p line, or npos. */
    size_t
    find(uint64_t line) const
    {
        const size_t base = setBase(line);
        for (size_t w = base; w < base + assoc_; ++w) {
            if (blocks_[w] == line)
                return w;
        }
        return npos;
    }

    /** LRU stamp of the way whose tag sits at blocks_[w]. */
    uint64_t &stamp(size_t w) { return blocks_[w + assoc_]; }

    static constexpr size_t npos = ~size_t{0};

    std::string name_;
    uint64_t size_bytes_;
    uint32_t assoc_;
    uint32_t line_bytes_;
    uint32_t line_shift_ = 0;
    uint64_t num_sets_ = 0;
    bool pow2_sets_ = false;
    uint64_t set_mask_ = 0;               ///< num_sets_ - 1 if pow2_sets_
    unsigned __int128 fastmod_m_ = 0;     ///< ceil(2^128 / num_sets_)
    uint64_t tick_ = 0;
    /// numSets() blocks of 2 * assoc_ words: the tags, then the stamps.
    std::vector<uint64_t> blocks_;
    CacheStats stats_;
};

} // namespace recperf

#endif // RECPERF_SIMCACHE_CACHE_HH

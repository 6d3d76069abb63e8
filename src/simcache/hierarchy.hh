/**
 * @file
 * Multi-core, three-level cache hierarchy with inclusive or exclusive
 * L2/L3 policies.
 *
 * Haswell and Broadwell implement inclusive L2/L3 hierarchies; Skylake's
 * L3 is exclusive (non-inclusive victim cache) of the L2 (Table II).
 * The paper attributes Broadwell's co-location latency degradation and
 * multimodal tail behaviour to inclusive back-invalidation (Takeaway 7,
 * Fig 11); this model reproduces that mechanism: an eviction from an
 * inclusive LLC removes the line from every core's private L1/L2.
 *
 * Each "core" owns a private L1 and L2 and shares the L3. Co-located
 * model instances are mapped to distinct cores, so their irregular
 * embedding-table streams contend in the shared LLC exactly as in the
 * paper's co-location experiments.
 */

#ifndef RECPERF_SIMCACHE_HIERARCHY_HH
#define RECPERF_SIMCACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "simcache/cache.hh"

namespace recperf {

/** Which level serviced an access. */
enum class HitLevel
{
    L1,
    L2,
    L3,
    Memory,
};

/** L2/L3 inclusion policy (Table II row "L2/L3 Inclusive or Exclusive"). */
enum class InclusionPolicy
{
    Inclusive,
    Exclusive,
};

/** Geometry and access latency of one cache level. */
struct LevelConfig
{
    uint64_t sizeBytes = 0;
    uint32_t associativity = 8;
    uint32_t latencyCycles = 4;
};

/**
 * Hardware prefetching configuration (§VII's "intelligent
 * pre-fetching" lever). The next-line prefetcher pulls the @p degree
 * following lines into the private L2 on every demand miss — it turns
 * the second line of a 128 B embedding row from a demand miss into a
 * hit, but pollutes the caches on single-line rows.
 */
struct PrefetchConfig
{
    bool nextLine = false;
    uint32_t degree = 1;
};

/**
 * Aggregated per-level statistics of one hierarchy: every core's
 * private L1s (and L2s) summed, plus the shared LLC. This is the
 * hardware-counter view the telemetry layer exports — per-level
 * hits/misses/back-invalidations feeding the MPKI gauges.
 */
struct HierarchyCounters
{
    CacheStats l1; ///< summed over all cores' private L1s
    CacheStats l2; ///< summed over all cores' private L2s
    CacheStats l3; ///< the shared LLC
};

/**
 * Three-level hierarchy: per-core private L1 and L2, shared L3.
 */
class CacheHierarchy
{
  public:
    /**
     * @param num_cores number of private L1/L2 pairs (co-location slots).
     */
    CacheHierarchy(uint32_t num_cores, const LevelConfig &l1,
                   const LevelConfig &l2, const LevelConfig &l3,
                   InclusionPolicy policy,
                   const PrefetchConfig &prefetch = PrefetchConfig{});

    uint32_t numCores() const { return static_cast<uint32_t>(l1s_.size()); }
    InclusionPolicy policy() const { return policy_; }

    /**
     * Simulate one load by core @p core to byte address @p addr,
     * applying the inclusion policy's fill/eviction rules.
     *
     * @return the level that serviced the access.
     */
    HitLevel access(uint32_t core, uint64_t addr);

    /**
     * Host-side hint ahead of access(@p core, @p addr): start loading
     * the line's private-L2 and LLC sets. No effect on the model.
     */
    void hostPrefetch(uint32_t core, uint64_t addr) const;

    Cache &l1(uint32_t core) { return *l1s_.at(core); }
    Cache &l2(uint32_t core) { return *l2s_.at(core); }
    Cache &l3() { return *l3_; }
    const Cache &l1(uint32_t core) const { return *l1s_.at(core); }
    const Cache &l2(uint32_t core) const { return *l2s_.at(core); }
    const Cache &l3() const { return *l3_; }

    /** Cumulative per-level statistics aggregated across all cores. */
    HierarchyCounters counters() const;

    /** Verify the inclusion invariant; panics on violation. Test hook. */
    void checkInclusionInvariant() const;

    /** Lines brought in by the prefetcher (all cores). */
    uint64_t prefetchedLines() const { return prefetched_lines_; }

  private:
    void fillPrivate(uint32_t core, uint64_t addr);
    void backInvalidate(uint64_t addr);
    void insertVictimIntoL3(uint64_t addr);
    void issuePrefetches(uint32_t core, uint64_t addr);

    PrefetchConfig prefetch_;
    uint64_t prefetched_lines_ = 0;
    InclusionPolicy policy_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::unique_ptr<Cache> l3_;
};

} // namespace recperf

#endif // RECPERF_SIMCACHE_HIERARCHY_HH

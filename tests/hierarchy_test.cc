/**
 * @file
 * Unit and property tests for the multi-level cache hierarchy,
 * covering inclusive vs. exclusive L2/L3 policies.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/logging.hh"
#include "core/rng.hh"
#include "machine/machine_spec.hh"
#include "simcache/hierarchy.hh"
#include "trace/id_generator.hh"

namespace recperf {
namespace {

LevelConfig
l1cfg()
{
    return {4 * 1024, 4, 4};
}

LevelConfig
l2cfg()
{
    return {16 * 1024, 8, 12};
}

LevelConfig
l3cfg()
{
    return {64 * 1024, 16, 38};
}

CacheHierarchy
makeHier(InclusionPolicy policy, uint32_t cores = 1)
{
    return CacheHierarchy(cores, l1cfg(), l2cfg(), l3cfg(), policy, 200);
}

TEST(Hierarchy, ColdMissGoesToMemory)
{
    auto h = makeHier(InclusionPolicy::Inclusive);
    EXPECT_EQ(h.access(0, 0), HitLevel::Memory);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    auto h = makeHier(InclusionPolicy::Inclusive);
    h.access(0, 0);
    EXPECT_EQ(h.access(0, 0), HitLevel::L1);
}

TEST(Hierarchy, InclusiveFillsAllLevels)
{
    auto h = makeHier(InclusionPolicy::Inclusive);
    h.access(0, 4096);
    EXPECT_TRUE(h.l1(0).contains(4096));
    EXPECT_TRUE(h.l2(0).contains(4096));
    EXPECT_TRUE(h.l3().contains(4096));
}

TEST(Hierarchy, ExclusiveDramFillBypassesL3)
{
    auto h = makeHier(InclusionPolicy::Exclusive);
    h.access(0, 4096);
    EXPECT_TRUE(h.l1(0).contains(4096));
    EXPECT_TRUE(h.l2(0).contains(4096));
    EXPECT_FALSE(h.l3().contains(4096));
}

TEST(Hierarchy, ExclusiveL3HitPromotesAndRemoves)
{
    auto h = makeHier(InclusionPolicy::Exclusive);
    // Fill L2 well past capacity so victims spill into L3.
    const uint64_t lines = 2 * 16 * 1024 / 64;
    for (uint64_t i = 0; i < lines; ++i)
        h.access(0, i * 64);
    // Find a line that is in L3 but not in L2.
    uint64_t victim_addr = UINT64_MAX;
    for (uint64_t addr : h.l3().residentLines()) {
        if (!h.l2(0).contains(addr)) {
            victim_addr = addr;
            break;
        }
    }
    ASSERT_NE(victim_addr, UINT64_MAX) << "no spilled victim found";
    EXPECT_EQ(h.access(0, victim_addr), HitLevel::L3);
    EXPECT_FALSE(h.l3().contains(victim_addr)); // moved up and out
    EXPECT_TRUE(h.l2(0).contains(victim_addr));
}

TEST(Hierarchy, L2HitRefillsL1)
{
    auto h = makeHier(InclusionPolicy::Inclusive);
    h.access(0, 0);
    // Simulate an L1-only eviction; the L2 copy remains.
    h.l1(0).extract(0);
    ASSERT_TRUE(h.l2(0).contains(0));
    EXPECT_EQ(h.access(0, 0), HitLevel::L2);
    EXPECT_TRUE(h.l1(0).contains(0));
}

TEST(Hierarchy, PrivateCachesAreIsolated)
{
    auto h = makeHier(InclusionPolicy::Inclusive, 2);
    h.access(0, 0);
    EXPECT_FALSE(h.l1(1).contains(0));
    EXPECT_FALSE(h.l2(1).contains(0));
    // But the shared L3 serves the other core.
    EXPECT_EQ(h.access(1, 0), HitLevel::L3);
}

TEST(Hierarchy, InclusiveBackInvalidationReachesPrivates)
{
    auto h = makeHier(InclusionPolicy::Inclusive, 2);
    h.access(0, 0); // core 0 caches line 0 in L1/L2/L3
    // Core 1 streams enough lines to wash line 0 out of the L3.
    const uint64_t lines = 4 * 64 * 1024 / 64;
    for (uint64_t i = 1; i <= lines; ++i)
        h.access(1, i * 64);
    EXPECT_FALSE(h.l3().contains(0));
    // Inclusion: the private copies must have been back-invalidated.
    EXPECT_FALSE(h.l2(0).contains(0));
    EXPECT_FALSE(h.l1(0).contains(0));
    EXPECT_GT(h.l2(0).stats().backInvalidations, 0u);
}

TEST(Hierarchy, ExclusiveVictimSurvivesOtherCoreStream)
{
    // The same scenario under an exclusive LLC: core 0's L2 copy is
    // NOT invalidated by core 1's stream (the Skylake advantage of
    // Takeaway 7).
    auto h = makeHier(InclusionPolicy::Exclusive, 2);
    h.access(0, 0);
    const uint64_t lines = 4 * 64 * 1024 / 64;
    for (uint64_t i = 1; i <= lines; ++i)
        h.access(1, i * 64);
    EXPECT_TRUE(h.l2(0).contains(0));
    EXPECT_EQ(h.access(0, 0), HitLevel::L1);
}

TEST(Hierarchy, LatencyMapping)
{
    auto h = makeHier(InclusionPolicy::Inclusive);
    EXPECT_EQ(h.latencyCycles(HitLevel::L1), 4u);
    EXPECT_EQ(h.latencyCycles(HitLevel::L2), 12u);
    EXPECT_EQ(h.latencyCycles(HitLevel::L3), 38u);
    EXPECT_EQ(h.latencyCycles(HitLevel::Memory), 200u);
}

TEST(Hierarchy, HitLevelNames)
{
    EXPECT_STREQ(hitLevelName(HitLevel::L1), "L1");
    EXPECT_STREQ(hitLevelName(HitLevel::Memory), "DRAM");
}

TEST(Hierarchy, FlushAllEmptiesEverything)
{
    auto h = makeHier(InclusionPolicy::Inclusive, 2);
    h.access(0, 0);
    h.access(1, 128);
    h.flushAll();
    EXPECT_EQ(h.l1(0).occupancy(), 0u);
    EXPECT_EQ(h.l2(1).occupancy(), 0u);
    EXPECT_EQ(h.l3().occupancy(), 0u);
}

TEST(Hierarchy, ResetStatsKeepsContents)
{
    auto h = makeHier(InclusionPolicy::Inclusive);
    h.access(0, 0);
    h.resetStats();
    EXPECT_EQ(h.l3().stats().accesses, 0u);
    EXPECT_EQ(h.access(0, 0), HitLevel::L1);
}

TEST(Hierarchy, InvalidCoreAccessPanics)
{
    auto h = makeHier(InclusionPolicy::Inclusive, 2);
    EXPECT_THROW(h.access(2, 0), PanicError);
}

TEST(Hierarchy, HostPrefetchHasNoModelEffect)
{
    auto h = makeHier(InclusionPolicy::Inclusive, 2);
    h.hostPrefetch(0, 4096);
    EXPECT_EQ(h.l3().occupancy(), 0u);
    EXPECT_EQ(h.counters().l3.accesses, 0u);
    EXPECT_EQ(h.access(0, 4096), HitLevel::Memory);
    EXPECT_THROW(h.hostPrefetch(2, 0), PanicError);
}

/** Property: the inclusion invariant holds under random traffic. */
class InclusionProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(InclusionProperty, HoldsUnderRandomTraffic)
{
    auto h = makeHier(InclusionPolicy::Inclusive, 3);
    Rng rng(GetParam());
    for (int i = 0; i < 20'000; ++i) {
        uint32_t core = static_cast<uint32_t>(rng.nextBelow(3));
        uint64_t addr = rng.nextBelow(1 << 20) * 64;
        h.access(core, addr);
        if (i % 4096 == 0)
            h.checkInclusionInvariant();
    }
    h.checkInclusionInvariant();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InclusionProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

/** Property: exclusive L2/L3 hold (almost) disjoint line sets. */
class ExclusionProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ExclusionProperty, L3DisjointFromL2)
{
    auto h = makeHier(InclusionPolicy::Exclusive, 2);
    Rng rng(GetParam());
    for (int i = 0; i < 20'000; ++i) {
        uint32_t core = static_cast<uint32_t>(rng.nextBelow(2));
        uint64_t addr = rng.nextBelow(1 << 18) * 64;
        h.access(core, addr);
    }
    // Exclusive LLC holds victims only: a line present in some L2
    // should not simultaneously be in L3 (it was extracted on hit and
    // only inserted on L2 eviction).
    uint64_t overlap = 0, total = 0;
    for (uint32_t core = 0; core < 2; ++core) {
        for (uint64_t addr : h.l2(core).residentLines()) {
            ++total;
            overlap += h.l3().contains(addr) ? 1 : 0;
        }
    }
    ASSERT_GT(total, 0u);
    // A small overlap is possible (a line resident in the *other*
    // core's L2 may be duplicated into L3 as this core's victim).
    EXPECT_LT(static_cast<double>(overlap) / static_cast<double>(total),
              0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExclusionProperty,
                         ::testing::Values(5u, 6u, 7u));

/** Property: hit rate rises monotonically with LLC capacity. */
TEST(Hierarchy, HitRateMonotoneInLlcSize)
{
    double prev_misses = 1e18;
    for (uint64_t llc_kb : {32, 64, 128, 256}) {
        LevelConfig l3{llc_kb * 1024, 16, 38};
        CacheHierarchy h(1, l1cfg(), l2cfg(), l3,
                         InclusionPolicy::Inclusive, 200);
        Rng rng(11);
        // Zipf-ish working set larger than the smallest LLC.
        for (int i = 0; i < 50'000; ++i) {
            uint64_t addr = (rng.nextBelow(4096) * rng.nextBelow(2) +
                             rng.nextBelow(512)) * 64;
            h.access(0, addr);
        }
        double misses = static_cast<double>(h.l3().stats().misses);
        EXPECT_LE(misses, prev_misses) << "LLC " << llc_kb << " KB";
        prev_misses = misses;
    }
}

/** 64-bit FNV-1a, fed one little-endian value at a time. */
class Fnv1a
{
  public:
    void
    add(uint64_t value, int bytes)
    {
        for (int b = 0; b < bytes; ++b) {
            hash_ ^= (value >> (8 * b)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    add(const CacheStats &s)
    {
        for (uint64_t v : {s.accesses, s.hits, s.misses, s.evictions,
                           s.backInvalidations})
            add(v, 8);
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct OracleResult
{
    uint64_t hash;
    HierarchyCounters counters;
};

/**
 * Play a fixed-seed RMC1-shaped stream through @p machine's hierarchy
 * and hash every access's HitLevel, then the final counters. Each
 * tenant owns four tables of 128 B rows, each drawn through
 * RepeatGen(0.5, 32768): one hot table (Zipf 1.1 over 200k rows) whose
 * lines live in the private caches, and three cold ones (Zipf 0.6 over
 * 2M rows) that churn the LLC. Tenants and tables take turns row by
 * row.
 */
OracleResult
playOracleStream(const MachineSpec &machine, uint32_t tenants, int rows)
{
    constexpr int kTables = 4;
    constexpr uint64_t kRowBytes = 128;
    auto hier = machine.makeHierarchy(tenants);
    Rng rng(2020);
    const TraceProfile hot{"hot", 1.1, 0.5, 32768};
    const TraceProfile cold{"cold", 0.6, 0.5, 32768};
    std::vector<std::vector<std::unique_ptr<IdGenerator>>> gens(tenants);
    for (auto &tenant_gens : gens) {
        for (int t = 0; t < kTables; ++t) {
            tenant_gens.push_back(
                t == 0 ? makeGenerator(hot, 200'000, rng.split())
                           : makeGenerator(cold, 2'000'000, rng.split()));
        }
    }

    Fnv1a fnv;
    for (int i = 0; i < rows; ++i) {
        const uint32_t core = static_cast<uint32_t>(i) % tenants;
        const int table = (i / static_cast<int>(tenants)) % kTables;
        const uint64_t base = (static_cast<uint64_t>(core) << 40) +
            (static_cast<uint64_t>(table + 1) << 36);
        const uint64_t row =
            static_cast<uint64_t>(gens[core][table]->next());
        for (uint64_t off = 0; off < kRowBytes; off += 64) {
            HitLevel level = hier->access(core, base + row * kRowBytes + off);
            fnv.add(static_cast<uint64_t>(level), 1);
        }
    }
    const HierarchyCounters c = hier->counters();
    fnv.add(c.l1);
    fnv.add(c.l2);
    fnv.add(c.l3);
    return {fnv.value(), c};
}

// Golden hit-level oracles. The constants were recorded with the
// original Cache (one std::vector<Line> per set) before it was
// rewritten as a flat struct-of-arrays; they pin the exact HitLevel
// sequence and counters. Never re-record them to make a change pass:
// a mismatch means the simulated hit/miss stream moved.

TEST(HierarchyOracle, SkylakeExclusiveOneTenant)
{
    OracleResult r = playOracleStream(skylake(), 1, 400'000);
    EXPECT_GT(r.counters.l3.hits, 0u);
    EXPECT_GT(r.counters.l3.evictions, 0u);
    EXPECT_EQ(r.hash, 0x6df1f4ca02252ff3ULL) << std::hex << r.hash;
}

TEST(HierarchyOracle, BroadwellInclusiveFourTenants)
{
    OracleResult r = playOracleStream(broadwell(), 4, 1'200'000);
    // The stream must overflow the LLC so back-invalidation runs.
    EXPECT_GT(r.counters.l2.backInvalidations +
                  r.counters.l1.backInvalidations, 0u);
    EXPECT_EQ(r.hash, 0x6115b8d6820ce4daULL) << std::hex << r.hash;
}

TEST(HierarchyOracle, SkylakeNextLinePrefetch)
{
    MachineSpec m = skylake();
    m.prefetch.nextLine = true;
    OracleResult r = playOracleStream(m, 1, 200'000);
    EXPECT_EQ(r.hash, 0xf8fc37d8e99f7a36ULL) << std::hex << r.hash;
}

} // namespace
} // namespace recperf

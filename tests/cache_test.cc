/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/logging.hh"
#include "simcache/cache.hh"

namespace recperf {
namespace {

TEST(Cache, GeometryValidation)
{
    Cache c("t", 64 * 1024, 8);
    EXPECT_EQ(c.numSets(), 64u * 1024 / 64 / 8);
    EXPECT_EQ(c.lineBytes(), 64u);
    EXPECT_THROW(Cache("bad", 1000, 8), PanicError); // not divisible
    // Line sizes must be powers of two (shift-based line addressing);
    // the panic names the offending cache.
    try {
        Cache("odd-line", 96 * 8 * 4, 8, 96);
        ADD_FAILURE() << "96 B lines accepted";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("odd-line"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(Cache("one-byte", 64, 8, 1), PanicError);
    // Non-power-of-two set counts are fine (Skylake's LLC has 40960).
    Cache llc("llc", static_cast<uint64_t>(27.5 * 1024 * 1024), 11);
    EXPECT_EQ(llc.numSets(), 40960u);
}

TEST(Cache, MissOnEmpty)
{
    Cache c("t", 4096, 4);
    EXPECT_FALSE(c.access(0));
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_EQ(c.stats().hits, 0u);
}

TEST(Cache, HitAfterFill)
{
    Cache c("t", 4096, 4);
    c.fill(128);
    EXPECT_TRUE(c.access(128));
    EXPECT_EQ(c.stats().hits, 1u);
}

TEST(Cache, SameLineDifferentBytes)
{
    Cache c("t", 4096, 4);
    c.fill(0);
    EXPECT_TRUE(c.access(1));   // same 64 B line
    EXPECT_TRUE(c.access(63));
    EXPECT_FALSE(c.access(64)); // next line
}

TEST(Cache, AccessDoesNotAllocate)
{
    Cache c("t", 4096, 4);
    c.access(0);
    EXPECT_FALSE(c.contains(0));
    EXPECT_EQ(c.residentLines().size(), 0u);
}

TEST(Cache, FillIsIdempotent)
{
    Cache c("t", 4096, 4);
    c.fill(0);
    EXPECT_FALSE(c.fill(0).has_value());
    EXPECT_EQ(c.residentLines().size(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    // One set: 256 B, 4-way => 1 set of 4 lines.
    Cache c("t", 256, 4);
    EXPECT_EQ(c.numSets(), 1u);
    for (uint64_t line = 0; line < 4; ++line)
        c.fill(line * 64);
    // Touch lines 0-2 so line 3 is LRU.
    c.access(0);
    c.access(64);
    c.access(128);
    auto evicted = c.fill(1024);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 192u);
}

TEST(Cache, EvictionReturnsLineAddress)
{
    Cache c("t", 256, 1); // direct-mapped, 4 sets
    c.fill(0);
    auto evicted = c.fill(256); // maps to the same set (4 sets * 64 B)
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0u);
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, InvalidateCountsBackInvalidation)
{
    Cache c("t", 4096, 4);
    c.fill(0);
    EXPECT_TRUE(c.invalidate(0));
    EXPECT_EQ(c.stats().backInvalidations, 1u);
    EXPECT_FALSE(c.invalidate(0));
    EXPECT_EQ(c.stats().backInvalidations, 1u);
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, ExtractDoesNotCountBackInvalidation)
{
    Cache c("t", 4096, 4);
    c.fill(0);
    EXPECT_TRUE(c.extract(0));
    EXPECT_EQ(c.stats().backInvalidations, 0u);
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.extract(0));
}

TEST(Cache, ResidentLines)
{
    Cache c("t", 4096, 4);
    c.fill(0);
    c.fill(640);
    auto lines = c.residentLines();
    std::sort(lines.begin(), lines.end());
    EXPECT_EQ(lines, (std::vector<uint64_t>{0, 640}));
}

TEST(Cache, WorkingSetFitsNoCapacityMisses)
{
    // A working set smaller than capacity: after the first pass, every
    // access hits regardless of order.
    Cache c("t", 64 * 1024, 8);
    const uint64_t lines = 64 * 1024 / 64 / 2; // half capacity
    for (uint64_t i = 0; i < lines; ++i) {
        c.access(i * 64);
        c.fill(i * 64);
    }
    c.stats().reset();
    for (int pass = 0; pass < 3; ++pass) {
        for (uint64_t i = 0; i < lines; ++i)
            EXPECT_TRUE(c.access(i * 64));
    }
    EXPECT_EQ(c.stats().misses, 0u);
}

TEST(Cache, ThrashingWorkingSetMissesEverything)
{
    // Classic LRU pathology: cyclic sweep over capacity+1 lines of one
    // set misses every time.
    Cache c("t", 256, 4); // one set, 4 ways
    const uint64_t lines = 5;
    for (int pass = 0; pass < 4; ++pass) {
        for (uint64_t i = 0; i < lines; ++i) {
            if (!c.access(i * 64))
                c.fill(i * 64);
        }
    }
    // First pass: 5 misses. Subsequent passes: all misses (LRU cycle).
    EXPECT_EQ(c.stats().misses, 20u);
}

TEST(Cache, StatsMissRate)
{
    Cache c("t", 4096, 4);
    c.access(0);
    c.fill(0);
    c.access(0);
    EXPECT_DOUBLE_EQ(c.stats().missRate(), 0.5);
}

TEST(Cache, SetIndexingIsolation)
{
    // Lines mapping to different sets never evict each other.
    Cache c("t", 512, 1); // 8 direct-mapped sets
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_FALSE(c.fill(i * 64).has_value());
    EXPECT_EQ(c.residentLines().size(), 8u);
}

} // namespace
} // namespace recperf

/**
 * @file
 * Property test: the set-associative Cache against an executable
 * reference model (per-set LRU lists) under randomized operation
 * sequences. Any divergence in hit/miss outcomes, evicted victims, or
 * resident contents is a simulator bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <ostream>
#include <vector>

#include "core/rng.hh"
#include "simcache/cache.hh"

namespace recperf {
namespace {

/** Obviously-correct reference: one LRU list per set. */
class ReferenceCache
{
  public:
    ReferenceCache(uint64_t size_bytes, uint32_t assoc,
                   uint32_t line_bytes = 64)
        : assoc_(assoc), line_bytes_(line_bytes),
          sets_(size_bytes / line_bytes / assoc)
    {
    }

    bool
    access(uint64_t addr)
    {
        auto &set = setFor(addr);
        uint64_t line = addr / line_bytes_;
        auto it = std::find(set.begin(), set.end(), line);
        if (it == set.end())
            return false;
        set.erase(it);
        set.push_back(line); // most recent at back
        return true;
    }

    std::optional<uint64_t>
    fill(uint64_t addr)
    {
        auto &set = setFor(addr);
        uint64_t line = addr / line_bytes_;
        auto it = std::find(set.begin(), set.end(), line);
        if (it != set.end()) {
            set.erase(it);
            set.push_back(line);
            return std::nullopt;
        }
        std::optional<uint64_t> evicted;
        if (set.size() == assoc_) {
            evicted = set.front() * line_bytes_;
            set.pop_front();
            ++evictions;
        }
        set.push_back(line);
        return evicted;
    }

    bool
    invalidate(uint64_t addr)
    {
        if (!extract(addr))
            return false;
        ++backInvalidations;
        return true;
    }

    bool
    extract(uint64_t addr)
    {
        auto &set = setFor(addr);
        auto it = std::find(set.begin(), set.end(), addr / line_bytes_);
        if (it == set.end())
            return false;
        set.erase(it);
        return true;
    }

    bool
    contains(uint64_t addr) const
    {
        const auto &set = sets_[addr / line_bytes_ % sets_.size()];
        return std::find(set.begin(), set.end(), addr / line_bytes_) !=
            set.end();
    }

    uint64_t evictions = 0;
    uint64_t backInvalidations = 0;

    uint64_t
    occupancy() const
    {
        uint64_t n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return n;
    }

  private:
    std::list<uint64_t> &
    setFor(uint64_t addr)
    {
        return sets_[addr / line_bytes_ % sets_.size()];
    }

    uint32_t assoc_;
    uint32_t line_bytes_;
    std::vector<std::list<uint64_t>> sets_;
};

struct FuzzConfig
{
    uint64_t seed;
    uint64_t size_bytes;
    uint32_t assoc;
    uint64_t addr_space_lines;
};

/** Names each fuzz case by its fields. gtest's default printer dumps
 *  the raw bytes, padding after `assoc` included, so the test names
 *  would change from build to build. */
void
PrintTo(const FuzzConfig &cfg, std::ostream *os)
{
    *os << "seed" << cfg.seed << "_" << cfg.size_bytes << "B_"
        << cfg.assoc << "way_" << cfg.addr_space_lines << "lines";
}

/**
 * Run 30k random operations on a Cache and the reference. Line address
 * = @p base_line + @p stride_lines * draw; a stride that is a multiple
 * of a large set count crowds the draws into a few sets.
 */
void
fuzzAgainstReference(const FuzzConfig &cfg, uint64_t stride_lines = 1,
                     uint64_t base_line = 0)
{
    Cache cache("fuzz", cfg.size_bytes, cfg.assoc);
    ReferenceCache ref(cfg.size_bytes, cfg.assoc);
    Rng rng(cfg.seed);

    for (int step = 0; step < 30'000; ++step) {
        uint64_t line = base_line +
            rng.nextBelow(cfg.addr_space_lines) * stride_lines;
        uint64_t addr = line * 64 +
            rng.nextBelow(64); // arbitrary byte within the line
        switch (rng.nextBelow(6)) {
          case 0:
          case 1:
          case 2: { // access (most common)
            bool got = cache.access(addr);
            bool want = ref.access(addr);
            ASSERT_EQ(got, want) << "access mismatch at step " << step;
            break;
          }
          case 3: { // fill
            auto got = cache.fill(addr);
            auto want = ref.fill(addr);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "fill eviction mismatch at step " << step;
            if (got) {
                ASSERT_EQ(*got, *want) << "victim mismatch at " << step;
            }
            break;
          }
          case 4: { // invalidate
            ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                << "invalidate mismatch at step " << step;
            break;
          }
          default: { // extract
            ASSERT_EQ(cache.extract(addr), ref.extract(addr))
                << "extract mismatch at step " << step;
            break;
          }
        }
        if (step % 4096 == 0) {
            ASSERT_EQ(cache.occupancy(), ref.occupancy());
            ASSERT_EQ(cache.contains(addr), ref.contains(addr));
        }
    }

    // Final state: identical resident sets.
    auto lines = cache.residentLines();
    ASSERT_EQ(lines.size(), ref.occupancy());
    for (uint64_t addr : lines)
        ASSERT_TRUE(ref.contains(addr));
    EXPECT_EQ(cache.stats().evictions, ref.evictions);
    EXPECT_EQ(cache.stats().backInvalidations, ref.backInvalidations);
}

class CacheFuzz : public ::testing::TestWithParam<FuzzConfig>
{
};

TEST_P(CacheFuzz, AgreesWithReference)
{
    fuzzAgainstReference(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFuzz,
    ::testing::Values(
        FuzzConfig{1, 4096, 1, 256},        // direct-mapped, tight space
        FuzzConfig{2, 4096, 4, 512},
        FuzzConfig{3, 32 * 1024, 8, 4096},
        FuzzConfig{4, 256 * 1024, 16, 8192},
        FuzzConfig{5, 4096, 64, 128},       // fully-associative set
        FuzzConfig{6, 64 * 1024, 2, 100'000},
        // Non-power-of-two set counts take the fastmod set index.
        // Broadwell's LLC shape (20-way, 28672 sets) at 1/1024 size.
        FuzzConfig{8, 28 * 20 * 64, 20, 1200},
        FuzzConfig{9, 3 * 4 * 64, 4, 40}));      // 3 sets

TEST(CacheFuzzLarge, SkylakeLlcAgreesWithReference)
{
    // Skylake's LLC (27.5 MiB, 11-way: 40960 sets), with the draws
    // crowded into 8 sets at line addresses above 2^56.
    fuzzAgainstReference({7, 28'835'840, 11, 160}, 40960 / 8 * 3,
                         1ull << 56);
}

} // namespace
} // namespace recperf

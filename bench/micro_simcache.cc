/**
 * @file
 * Google-benchmark microbenchmarks for the cache simulator — the inner
 * loop of every timing experiment, so its host-side throughput bounds
 * how large a sweep the harness can run.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "core/rng.hh"
#include "machine/machine_spec.hh"
#include "simcache/hierarchy.hh"
#include "trace/id_generator.hh"

using namespace recperf;

namespace {

/** One simulated access per iteration: the Time column is ns/access. */
void
countAccesses(benchmark::State &state)
{
    state.counters["access/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_CacheAccessHit(benchmark::State &state)
{
    Cache cache("bench", 1024 * 1024, 16);
    for (uint64_t line = 0; line < 1024; ++line)
        cache.fill(line * 64);
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access((i++ % 1024) * 64));
    }
    countAccesses(state);
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessMissFill(benchmark::State &state)
{
    Cache cache("bench", 256 * 1024, 8);
    Rng rng(1);
    for (auto _ : state) {
        uint64_t addr = rng.nextBelow(1 << 22) * 64;
        if (!cache.access(addr))
            cache.fill(addr);
    }
    countAccesses(state);
}
BENCHMARK(BM_CacheAccessMissFill);

void
BM_HierarchyRandomAccess(benchmark::State &state)
{
    auto tenants = static_cast<uint32_t>(state.range(0));
    auto hier = broadwell().makeHierarchy(tenants);
    Rng rng(2);
    for (auto _ : state) {
        uint32_t core = static_cast<uint32_t>(rng.nextBelow(tenants));
        uint64_t addr = rng.nextBelow(1 << 24) * 64;
        benchmark::DoNotOptimize(hier->access(core, addr));
    }
    countAccesses(state);
}
BENCHMARK(BM_HierarchyRandomAccess)->Arg(1)->Arg(8);

void
BM_HierarchyZipfAccess(benchmark::State &state)
{
    auto hier = skylake().makeHierarchy(1);
    ZipfGen gen(2'000'000, 1.05, Rng(3));
    for (auto _ : state) {
        uint64_t addr = static_cast<uint64_t>(gen.next()) * 128;
        benchmark::DoNotOptimize(hier->access(0, addr));
    }
    countAccesses(state);
}
BENCHMARK(BM_HierarchyZipfAccess);

/**
 * Byte addresses of an RMC1-shaped gather stream: four 200k-row tables
 * of 128 B rows (two lines each), every table drawn through
 * Zipf(1.1) + RepeatGen(0.5, 32768) as ModelTimer does, tables taking
 * turns row by row. Pre-generated so the loop times only the simulator.
 */
std::vector<uint64_t>
rmc1Stream(uint64_t seed, uint64_t base, size_t rows)
{
    constexpr int kTables = 4;
    constexpr uint64_t kRowBytes = 128;
    const TraceProfile profile{"rmc1", 1.1, 0.5, 32768};
    Rng rng(seed);
    std::vector<std::unique_ptr<IdGenerator>> gens;
    for (int t = 0; t < kTables; ++t)
        gens.push_back(makeGenerator(profile, 200'000, rng.split()));
    std::vector<uint64_t> addrs;
    addrs.reserve(rows * 2);
    for (size_t r = 0; r < rows; ++r) {
        const size_t t = r % kTables;
        const uint64_t row_addr = base + ((t + 1) << 36) +
            static_cast<uint64_t>(gens[t]->next()) * kRowBytes;
        addrs.push_back(row_addr);
        addrs.push_back(row_addr + 64);
    }
    return addrs;
}

/** Replay @p addrs on core 0 of @p hier, one access per iteration. */
void
replay(benchmark::State &state, CacheHierarchy &hier,
       const std::vector<uint64_t> &addrs)
{
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hier.access(0, addrs[i]));
        if (++i == addrs.size())
            i = 0;
    }
    countAccesses(state);
}

void
BM_HierarchySkylakeRmc1(benchmark::State &state)
{
    auto hier = skylake().makeHierarchy(1);
    const std::vector<uint64_t> addrs = rmc1Stream(4, 0, 1 << 20);
    replay(state, *hier, addrs);
}
BENCHMARK(BM_HierarchySkylakeRmc1);

void
BM_HierarchyBroadwellColocated(benchmark::State &state)
{
    // Four RMC1 tenants on an inclusive LLC, taking turns row by row:
    // the co-location shape whose back-invalidations Fig 11 measures.
    constexpr uint32_t kTenants = 4;
    auto hier = broadwell().makeHierarchy(kTenants);
    std::vector<std::vector<uint64_t>> streams;
    for (uint32_t c = 0; c < kTenants; ++c)
        streams.push_back(rmc1Stream(10 + c, uint64_t{c} << 40, 1 << 18));
    size_t i = 0;
    for (auto _ : state) {
        const uint32_t core = static_cast<uint32_t>(i / 2 % kTenants);
        const size_t pos = i / (2 * kTenants) * 2 + i % 2;
        benchmark::DoNotOptimize(hier->access(core, streams[core][pos]));
        if (++i == streams[0].size() * kTenants)
            i = 0;
    }
    countAccesses(state);
}
BENCHMARK(BM_HierarchyBroadwellColocated);

void
BM_HierarchySkylakeUniform(benchmark::State &state)
{
    auto hier = skylake().makeHierarchy(1);
    UniformGen gen(2'000'000, Rng(5));
    std::vector<uint64_t> addrs;
    for (int64_t id : gen.draw(1 << 20))
        addrs.push_back(static_cast<uint64_t>(id) * 64);
    replay(state, *hier, addrs);
}
BENCHMARK(BM_HierarchySkylakeUniform);

void
BM_HierarchySkylakeConstruct(benchmark::State &state)
{
    const MachineSpec m = skylake();
    for (auto _ : state)
        benchmark::DoNotOptimize(m.makeHierarchy(1));
}
BENCHMARK(BM_HierarchySkylakeConstruct)->Unit(benchmark::kMicrosecond);

void
BM_RepeatGenRmc1(benchmark::State &state)
{
    auto gen = makeGenerator({"rmc1", 1.1, 0.5, 32768}, 200'000, Rng(6));
    for (auto _ : state)
        benchmark::DoNotOptimize(gen->next());
}
BENCHMARK(BM_RepeatGenRmc1);

} // namespace

BENCHMARK_MAIN();

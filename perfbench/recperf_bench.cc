/**
 * @file
 * RecPerf benchmark program: one process per workload run.
 *
 *   recperf_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads (see README.md in this directory for why each exists):
 *   serve_rmc2        Server::runOpenLoop, RMC2-small on Broadwell
 *   shard_rmc1_chaos  ShardedInference::run, RMC1-small on 4 Skylake nodes
 *   eval_rmc3         RecModel::forward, RMC3-small functional
 *   eval_rmc2_dram    RecModel::forward, RMC2-small at 262144 rows/table
 *
 * With --trace 0 the run measures the end-to-end metrics; with --trace 1
 * it runs the traced pass, which times calls into each layer's public
 * functions from this file and reports the per-layer metrics. Both
 * print a human-readable report and end with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Everything here links the repository's libraries unchanged; the only
 * instrumentation is this file's own clocks and its replacement of the
 * global allocation functions (to count heap allocations per forward).
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <immintrin.h>
#include <map>
#include <numeric>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "backend/compute_backend.hh"
#include "core/rng.hh"
#include "core/stats.hh"
#include "core/thread_pool.hh"
#include "machine/machine_spec.hh"
#include "machine/simd.hh"
#include "model/rec_model.hh"
#include "model/zoo.hh"
#include "obs/hw_counters.hh"
#include "obs/metrics.hh"
#include "obs/request_log.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "ops/elementwise.hh"
#include "ops/kernel_cache.hh"
#include "ops/reference.hh"
#include "resilience/replica_set.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"
#include "timing/model_timer.hh"
#include "trace/id_generator.hh"

// ---------------------------------------------------------------------
// Heap-allocation counting. Replacing the global allocation functions in
// this translation unit counts every operator new in the process; tensor
// buffers come from std::aligned_alloc, which is interposed as well.

namespace {
std::atomic<uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (align <= alignof(std::max_align_t))
        p = std::malloc(n ? n : 1);
    else if (posix_memalign(&p, align, n ? n : 1) != 0)
        p = nullptr;
    return p;
}
} // namespace

extern "C" void *
aligned_alloc(std::size_t align, std::size_t n)
{
    return countedAlloc(n, std::max(align, sizeof(void *)));
}

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n, 0))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    if (void *p = countedAlloc(n, static_cast<std::size_t>(al)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace recperf;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds used so far by all of this process's threads. Time the
 * process waited for a core, on a shared host's other tenants or the
 * hypervisor (steal), is not in it.
 */
double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Independent sub-seeds derived from the run's --seed. */
uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Pool threads for the functional engine: nproc, at most 4. */
int
benchThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

// ---------------------------------------------------------------------
// Result collection and output.

struct Metric
{
    const char *name;
    const char *unit;
};

/** Must match BENCHMARK.json ("end_to_end"). */
const Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s", "items/s"},
    {"latency_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

/** Must match BENCHMARK.json ("per_layer"). */
const Metric kPerLayer[] = {
    {"serving.run_s", "s"},
    {"serving.self_s", "s"},
    {"serving.simcache_trace_frac", "ratio"},
    {"serving.virt_goodput_items_per_s", "items/virt-s"},
    {"serving.unserved_frac", "ratio"},
    {"timing.calls", "count"},
    {"timing.run_us", "us"},
    {"simcache.access_ns", "ns"},
    {"simcache.accesses_per_item", "count"},
    {"simcache.l1_hit", "ratio"},
    {"simcache.l2_hit", "ratio"},
    {"simcache.llc_hit", "ratio"},
    {"trace.next_ns", "ns"},
    {"trace.ids_per_item", "count"},
    {"sched.brownout_transitions", "count"},
    {"sched.degraded_item_frac", "ratio"},
    {"resilience.hedges_per_inf", "ratio"},
    {"resilience.hedge_win_frac", "ratio"},
    {"resilience.retries_per_inf", "ratio"},
    {"resilience.failovers", "count"},
    {"resilience.breaker_opens", "count"},
    {"resilience.sdc_detect_frac", "ratio"},
    {"obs.sinks_s", "s"},
    {"obs.export_s", "s"},
    {"obs.trace_events", "count"},
    {"obs.request_records", "count"},
    {"ops.fc_ms", "ms"},
    {"ops.sls_ms", "ms"},
    {"model.other_ms", "ms"},
    {"ops.fc_frac", "ratio"},
    {"ops.sls_frac", "ratio"},
    {"ops.fc_gflops", "GFLOP/s"},
    {"ops.fc_peak_frac", "ratio"},
    {"ops.sls_gbps", "GB/s"},
    {"ops.sls_gather_frac", "ratio"},
    {"model.allocs_per_batch", "count"},
    {"kernel.tunes", "count"},
    {"kernel.tuning_s", "s"},
    {"kernel.gemm_max_ns_per_call", "ns"},
    {"kernel.unsplit_gemm_frac", "ratio"},
    {"pool.parallel_for_us", "us"},
    {"pool.speedup", "ratio"},
    {"host.nproc", "count"},
    {"host.isa_tier", "count"},
    {"host.fma_gflops_1t", "GFLOP/s"},
    {"host.fma_gflops_nt", "GFLOP/s"},
    {"host.stream_gbps", "GB/s"},
    {"host.gather_gbps", "GB/s"},
    {"bench.traced_overhead_frac", "ratio"},
    {"bench.latency_ms_p95", "ms"},
};

struct Report
{
    std::map<std::string, double> values;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void set(const std::string &name, double v) { values[name] = v; }

    void
    check(bool ok, const char *what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("CHECK FAILED: %s\n", what);
        } else {
            std::printf("check ok:     %s\n", what);
        }
    }

    /**
     * Print every metric of @p set (missing ones read 0: the layer does
     * no work on this workload) and the closing JSON line.
     */
    template <size_t N>
    void
    emit(const Metric (&set)[N]) const
    {
        std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
        for (const Metric &m : set) {
            auto it = values.find(m.name);
            std::printf("%-36s %16.6g  %s\n", m.name,
                        it == values.end() ? 0.0 : it->second, m.unit);
        }
        std::printf("check_fail_frac %.6g (%llu of %llu checks failed)\n",
                    attempted ? static_cast<double>(failed) /
                            static_cast<double>(attempted)
                              : 0.0,
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
        std::string json = "{\"correct\": ";
        json += failed == 0 ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted);
        json += ", \"failed\": " + std::to_string(failed);
        json += ", \"metrics\": {";
        bool first = true;
        for (const Metric &m : set) {
            auto it = values.find(m.name);
            double v = it == values.end() ? 0.0 : it->second;
            if (!std::isfinite(v))
                v = 0.0;
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            json += first ? "" : ", ";
            json += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
            first = false;
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        std::fflush(stdout);
    }
};

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * Set-ups per untraced simulator run: setup_s is their median. The
 * constructor is built in two bursts, one before and one after the timed
 * run, each of at least kSetupReps builds and kSetupBurstSeconds. A
 * median that spans the whole run follows the host's speed over the run
 * rather than at one moment: a shared host's speed can drift by tens of
 * percent within a minute.
 */
constexpr int kSetupReps = 2;
constexpr double kSetupBurstSeconds = 1.0;

/**
 * Fresh-tuning sessions per untraced eval run. The first-touch tuner
 * lands in one of several modes per process (README.md), so one run
 * samples several and reports the median session. An odd count keeps
 * the median on one session rather than between two.
 */
constexpr int kEvalSessions = 7;

void
stampHost(Report &rep)
{
    KernelIsa isa = detectIsa();
    std::printf("host:         nproc %u, detected isa %s, backend %s, "
                "pool threads %d\n",
                std::thread::hardware_concurrency(), kernelIsaName(isa),
                backendKindName(activeBackendConfig().kind),
                benchThreads());
    rep.set("host.nproc", std::thread::hardware_concurrency());
    rep.set("host.isa_tier", static_cast<double>(static_cast<int>(isa)));
}

// ---------------------------------------------------------------------
// Host ceiling probes (traced pass of the functional workloads).

/** FMA chains on 16 independent accumulators; returns GFLOP/s. */
__attribute__((target("avx512f,fma"))) double
fmaAvx512(double seconds)
{
    __m512 acc[16];
    for (int i = 0; i < 16; ++i)
        acc[i] = _mm512_set1_ps(1.0f + static_cast<float>(i) * 1e-3f);
    const __m512 a = _mm512_set1_ps(0.999999f);
    const __m512 b = _mm512_set1_ps(1e-7f);
    uint64_t iters = 0;
    auto t0 = Clock::now();
    double elapsed = 0.0;
    while (elapsed < seconds) {
        for (int r = 0; r < 4096; ++r)
            for (int i = 0; i < 16; ++i)
                acc[i] = _mm512_fmadd_ps(acc[i], a, b);
        iters += 4096;
        elapsed = secondsSince(t0);
    }
    float sink = 0.0f;
    for (int i = 0; i < 16; ++i)
        sink += _mm512_reduce_add_ps(acc[i]);
    volatile float keep = sink;
    (void)keep;
    return static_cast<double>(iters) * 16 * 16 * 2 / elapsed / 1e9;
}

__attribute__((target("avx2,fma"))) double
fmaAvx2(double seconds)
{
    __m256 acc[12];
    for (int i = 0; i < 12; ++i)
        acc[i] = _mm256_set1_ps(1.0f + static_cast<float>(i) * 1e-3f);
    const __m256 a = _mm256_set1_ps(0.999999f);
    const __m256 b = _mm256_set1_ps(1e-7f);
    uint64_t iters = 0;
    auto t0 = Clock::now();
    double elapsed = 0.0;
    while (elapsed < seconds) {
        for (int r = 0; r < 4096; ++r)
            for (int i = 0; i < 12; ++i)
                acc[i] = _mm256_fmadd_ps(acc[i], a, b);
        iters += 4096;
        elapsed = secondsSince(t0);
    }
    alignas(32) float lanes[8];
    float sink = 0.0f;
    for (int i = 0; i < 12; ++i) {
        _mm256_store_ps(lanes, acc[i]);
        for (float l : lanes)
            sink += l;
    }
    volatile float keep = sink;
    (void)keep;
    return static_cast<double>(iters) * 12 * 8 * 2 / elapsed / 1e9;
}

double
fmaScalar(double seconds)
{
    float acc[8];
    for (int i = 0; i < 8; ++i)
        acc[i] = 1.0f + static_cast<float>(i) * 1e-3f;
    uint64_t iters = 0;
    auto t0 = Clock::now();
    double elapsed = 0.0;
    while (elapsed < seconds) {
        for (int r = 0; r < 4096; ++r)
            for (int i = 0; i < 8; ++i)
                acc[i] = std::fma(acc[i], 0.999999f, 1e-7f);
        iters += 4096;
        elapsed = secondsSince(t0);
    }
    volatile float keep = acc[0] + acc[7];
    (void)keep;
    return static_cast<double>(iters) * 8 * 2 / elapsed / 1e9;
}

double
fmaPeak(double seconds)
{
    switch (detectIsa()) {
      case KernelIsa::Avx512: return fmaAvx512(seconds);
      case KernelIsa::Avx2: return fmaAvx2(seconds);
      default: return fmaScalar(seconds);
    }
}

/** Runs @p fn on @p threads std::threads at once; sums their results. */
double
onThreads(int threads, const std::function<double(int)> &fn)
{
    std::vector<double> out(static_cast<size_t>(threads), 0.0);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] { out[static_cast<size_t>(t)] = fn(t); });
    for (std::thread &th : pool)
        th.join();
    double s = 0.0;
    for (double x : out)
        s += x;
    return s;
}

void
hostCeilings(Report &rep, int threads)
{
    double fma1 = fmaPeak(0.3);
    double fman = onThreads(threads, [](int) { return fmaPeak(0.3); });

    // STREAM triad over 3 x 32 MiB arrays per thread partition.
    const size_t n = size_t{8} << 20;
    std::vector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
    auto triad = [&](int t) {
        size_t lo = n * static_cast<size_t>(t) / static_cast<size_t>(threads);
        size_t hi =
            n * static_cast<size_t>(t + 1) / static_cast<size_t>(threads);
        for (int rep_i = 0; rep_i < 8; ++rep_i)
            for (size_t i = lo; i < hi; ++i)
                a[i] = b[i] + 1.5f * c[i];
        return 0.0;
    };
    onThreads(threads, triad); // first touch
    auto t0 = Clock::now();
    onThreads(threads, triad);
    double stream = 8.0 * 3.0 * 4.0 * static_cast<double>(n) /
        secondsSince(t0) / 1e9;

    // Random 128-byte row gathers (an RMC embedding row) from 256 MiB.
    const size_t row_floats = 32;
    const size_t rows = (size_t{256} << 20) / (row_floats * 4);
    std::vector<float> table(rows * row_floats, 1.0f);
    const size_t per_thread = 1 << 21;
    auto gather = [&](int t) {
        Rng rng(subSeed(77, static_cast<uint64_t>(t)));
        std::vector<uint32_t> ids(per_thread);
        for (uint32_t &id : ids)
            id = static_cast<uint32_t>(rng.nextBelow(rows));
        float acc[32] = {};
        auto g0 = Clock::now();
        for (uint32_t id : ids) {
            const float *row = &table[id * row_floats];
            for (size_t j = 0; j < row_floats; ++j)
                acc[j] += row[j];
        }
        double secs = secondsSince(g0);
        volatile float keep = acc[0] + acc[31];
        (void)keep;
        return static_cast<double>(per_thread) * row_floats * 4 / secs / 1e9;
    };
    double gbps = onThreads(threads, gather);

    std::printf("ceilings:     fma %.1f GFLOP/s (1 thread), %.1f GFLOP/s "
                "(%d threads); stream triad %.1f GB/s; random 128-B "
                "gather %.1f GB/s\n",
                fma1, fman, threads, stream, gbps);
    rep.set("host.fma_gflops_1t", fma1);
    rep.set("host.fma_gflops_nt", fman);
    rep.set("host.stream_gbps", stream);
    rep.set("host.gather_gbps", gbps);
}

// ---------------------------------------------------------------------
// Virtual-time engine workloads.

/**
 * Recorded virt fingerprints of the fixed-seed golden runs at the commit
 * that introduced this benchmark. A host-side optimisation must leave
 * them bit-identical; a deliberate model change updates them.
 */
const std::map<std::string, std::string> kGolden = {
    {"serve_rmc2", "400 400 0 0 0 0.00022398578290150004 "
                   "0.00095162506903094003 | 188512/139168 13694/125474 "
                   "48010/77464"},
    {"shard_rmc1_chaos", "150 0 0 93 52 1 35 17 3 0.00011759177652525551 "
                         "0.00028877761969776542 | 24834/16126 7368/8758 "
                         "10/8748"},
};

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Cache counters of a fixed-seed standalone timer: the hierarchy part
 *  of the virt fingerprint. */
std::string
hierarchyFingerprint(const MachineSpec &machine, const ModelConfig &cfg,
                     int64_t batch)
{
    TimerOptions topts;
    topts.batch = batch;
    topts.seed = 7;
    topts.backend = activeBackendConfig();
    ModelTimer timer(machine, cfg, topts);
    for (int i = 0; i < 4; ++i)
        timer.run();
    HierarchyCounters c = timer.hierarchy()->counters();
    std::string s;
    for (const CacheStats *st : {&c.l1, &c.l2, &c.l3}) {
        s += (s.empty() ? "" : " ") + std::to_string(st->hits) + "/" +
            std::to_string(st->misses);
    }
    return s;
}

/**
 * One burst of simulator builds: once in the traced pass, otherwise at
 * least kSetupReps builds and kSetupBurstSeconds. Appends each build's CPU
 * seconds to @p times and returns the last build.
 */
template <typename Make>
auto
timedSetups(bool trace, std::vector<double> *times, Make make)
{
    decltype(make()) built;
    double spent = 0.0;
    for (int i = 0; i < (trace ? 1 : kSetupReps) ||
         (!trace && spent < kSetupBurstSeconds);
         ++i) {
        built.reset();
        double t0 = cpuSeconds();
        built = make();
        times->push_back(cpuSeconds() - t0);
        spent += times->back();
    }
    return built;
}

/** Sets setup_s to the median of @p times and prints their range. */
void
reportSetups(Report &rep, std::vector<double> times)
{
    std::sort(times.begin(), times.end());
    std::printf("set-up:       %zu builds, median %.4f s (min %.4f, max "
                "%.4f)\n",
                times.size(), median(times), times.front(), times.back());
    rep.set("setup_s", median(std::move(times)));
}

struct ServeSetup
{
    MachineSpec machine = broadwell();
    ModelConfig cfg = rmc2Small();
    TimerOptions topts;
    ServerOptions sopts;
};

/**
 * 0.7 x the closed-loop saturation of this configuration
 * (Server::runClosedLoop: about 23 500 items/s at this commit).
 */
constexpr double kServeRate = 16500.0;

/**
 * Simulated items per --seconds, fixed so that the virt outcome depends
 * on the seed only; 1.6 to 3 host seconds at the benchmark's commit.
 * Half as many let the virt p50 spread 0.12 of its median across ten
 * seeds.
 */
constexpr double kServeItemsPerSecond = 800.0;

/**
 * Timed chunks per serve run: successive runOpenLoop calls on one Server,
 * each over an equal share of the items. items_per_s is the median of
 * the chunks' rates, so a burst of another tenant's load moves one
 * chunk, not the result.
 */
constexpr int kServeChunks = 8;

ServeSetup
serveSetup(uint64_t seed)
{
    ServeSetup s;
    s.topts.seed = subSeed(seed, 1);
    s.topts.backend = activeBackendConfig();
    s.sopts.numWorkers = 4;
    s.sopts.maxBatch = 16;
    s.sopts.slaSeconds = 10e-3;
    s.sopts.seed = subSeed(seed, 2);
    s.sopts.deadlineSeconds = 10e-3;
    s.sopts.brownout.enabled = true;
    return s;
}

std::string
serveFingerprint(const ServingStats &st)
{
    return std::to_string(st.offeredItems()) + " " +
        std::to_string(st.completedItems()) + " " +
        std::to_string(st.shedItems + st.shedAdmissionDeadline +
                       st.deadlineShedQueue + st.droppedLowPriority) +
        " " + std::to_string(st.deadlineCancelled) + " " +
        std::to_string(st.brownoutTransitions) + " " +
        fmtDouble(st.itemLatency.p(50)) + " " +
        fmtDouble(st.itemLatency.p(99));
}

void
checkGolden(Report &rep, const std::string &workload,
            const std::string &fingerprint)
{
    std::printf("fingerprint:  %s\n", fingerprint.c_str());
    auto it = kGolden.find(workload);
    rep.check(it != kGolden.end() && it->second == fingerprint,
              "golden virt fingerprint matches the recorded one");
}

/** Virt per-layer rows shared by the traced passes of both simulators. */
void
simcacheProbe(Report &rep, const MachineSpec &machine, const ModelConfig &cfg,
              uint32_t tenants, int64_t batch, uint64_t seed)
{
    // Replay the workload's ID stream (its trace profile, its tables)
    // through its machine's hierarchy, tenants taking turns per batch.
    auto hier = machine.makeHierarchy(tenants);
    TimerOptions defaults;
    TraceProfile profile{"bench", defaults.zipfAlpha, defaults.repeatProb,
                         defaults.repeatWindow};
    Rng rng(subSeed(seed, 40));
    std::vector<std::unique_ptr<IdGenerator>> gens;
    for (int64_t t = 0; t < cfg.emb.numTables; ++t)
        gens.push_back(makeGenerator(profile, cfg.emb.rowsOf(t), rng.split()));
    const uint64_t row_bytes = static_cast<uint64_t>(cfg.emb.rowBytes());
    const uint64_t lines = (row_bytes + 63) / 64;
    const int64_t ids_per_item = cfg.emb.numTables * cfg.emb.lookupsPerTable;

    std::vector<std::pair<uint32_t, uint64_t>> stream;
    const int batches = 48;
    for (int b = 0; b < batches; ++b) {
        uint32_t core = static_cast<uint32_t>(b) % tenants;
        uint64_t base = (uint64_t{core} + 1) << 44;
        for (int64_t t = 0; t < cfg.emb.numTables; ++t) {
            uint64_t table_base =
                base + (static_cast<uint64_t>(t) + 1) * (uint64_t{1} << 36);
            for (int64_t i = 0; i < batch * cfg.emb.lookupsPerTable; ++i) {
                uint64_t row = static_cast<uint64_t>(
                    gens[static_cast<size_t>(t)]->next());
                for (uint64_t l = 0; l < lines; ++l)
                    stream.emplace_back(core,
                                        table_base + row * row_bytes + l * 64);
            }
        }
    }
    uint64_t sink = 0;
    for (const auto &[core, addr] : stream) // warm the hierarchy
        sink += static_cast<uint64_t>(hier->access(core, addr));
    HierarchyCounters c0 = hier->counters();
    double t0 = cpuSeconds();
    for (const auto &[core, addr] : stream)
        sink += static_cast<uint64_t>(hier->access(core, addr));
    double secs = cpuSeconds() - t0;
    HierarchyCounters c1 = hier->counters();
    volatile uint64_t keep = sink;
    (void)keep;

    auto delta = [](const CacheStats &a, const CacheStats &b) {
        return std::make_pair(b.hits - a.hits, b.accesses - a.accesses);
    };
    auto [l1h, l1a] = delta(c0.l1, c1.l1);
    auto [l2h, l2a] = delta(c0.l2, c1.l2);
    auto [l3h, l3a] = delta(c0.l3, c1.l3);
    double items = static_cast<double>(batches * batch);
    rep.set("simcache.access_ns",
            secs * 1e9 / static_cast<double>(stream.size()));
    rep.set("simcache.accesses_per_item", static_cast<double>(l1a) / items);
    rep.set("simcache.l1_hit", l1a ? static_cast<double>(l1h) / l1a : 0.0);
    rep.set("simcache.l2_hit", l2a ? static_cast<double>(l2h) / l2a : 0.0);
    rep.set("simcache.llc_hit", l3a ? static_cast<double>(l3h) / l3a : 0.0);

    // Host cost of one trace-generator draw.
    auto gen =
        makeGenerator(profile, cfg.emb.rowsOf(0), Rng(subSeed(seed, 41)));
    const int draws = 1 << 21;
    int64_t acc = 0;
    double g0 = cpuSeconds();
    for (int i = 0; i < draws; ++i)
        acc += gen->next();
    double gsecs = cpuSeconds() - g0;
    volatile int64_t keep2 = acc;
    (void)keep2;
    rep.set("trace.next_ns", gsecs * 1e9 / draws);
    rep.set("trace.ids_per_item", static_cast<double>(ids_per_item));
}

/** Host CPU us per ModelTimer::run for the workload's timer
 *  configuration. */
double
timerRunUs(const MachineSpec &machine, const ModelConfig &cfg, int64_t batch,
           uint64_t seed)
{
    TimerOptions topts;
    topts.batch = std::max<int64_t>(1, batch);
    topts.seed = subSeed(seed, 42);
    topts.backend = activeBackendConfig();
    ModelTimer timer(machine, cfg, topts);
    for (int i = 0; i < 3; ++i)
        timer.run();
    int runs = 0;
    double t0 = cpuSeconds();
    while (cpuSeconds() - t0 < 0.5 || runs < 3) {
        timer.run();
        ++runs;
    }
    return (cpuSeconds() - t0) * 1e6 / runs;
}

void
simShares(Report &rep, double items, double run_s, double calls,
          double run_us)
{
    rep.set("serving.run_s", run_s);
    rep.set("timing.calls", calls);
    rep.set("timing.run_us", run_us);
    rep.set("serving.self_s", run_s - calls * run_us * 1e-6);
    double model_s = items *
        (rep.values["simcache.accesses_per_item"] *
             rep.values["simcache.access_ns"] +
         rep.values["trace.ids_per_item"] * rep.values["trace.next_ns"]) *
        1e-9;
    rep.set("serving.simcache_trace_frac", run_s > 0 ? model_s / run_s : 0.0);
}

void
runServe(const RunArgs &args, Report &rep)
{
    const auto items = static_cast<uint64_t>(
        std::max(1.0, std::round(args.seconds * kServeItemsPerSecond)));
    const uint64_t chunk_items =
        (items + kServeChunks - 1) / kServeChunks;
    ServeSetup s = serveSetup(args.seed);
    std::printf("workload:     serve_rmc2 — %s on %s, %u workers, max "
                "batch %lld, open loop %.0f items/s, %d chunks of %llu "
                "items, deadline %.0f ms, brownout on, sinks off\n",
                s.cfg.name.c_str(), s.machine.name.c_str(),
                s.sopts.numWorkers, static_cast<long long>(s.sopts.maxBatch),
                kServeRate, kServeChunks,
                static_cast<unsigned long long>(chunk_items),
                s.sopts.deadlineSeconds * 1e3);

    auto make = [&] {
        return std::make_unique<Server>(s.machine, s.cfg, s.topts, s.sopts);
    };
    std::vector<double> setups, rates;
    auto server = timedSetups(args.trace, &setups, make);
    // The constructor's warm-up leaves the simulated caches short of
    // their steady state: a first chunk runs at about half the virt p50
    // of later ones. One untimed chunk warms them.
    (void)server->runOpenLoop(kServeRate, chunk_items);

    LatencySample latency;
    double run_s = 0.0, run_wall_s = 0.0, duration = 0.0, goodput_items = 0.0;
    double completed = 0.0, offered = 0.0, batches = 0.0, degraded = 0.0;
    double transitions = 0.0;
    bool accounted = true;
    for (int c = 0; c < kServeChunks; ++c) {
        auto w0 = Clock::now();
        double c0 = cpuSeconds();
        ServingStats st = server->runOpenLoop(kServeRate, chunk_items);
        double cpu = cpuSeconds() - c0;
        run_wall_s += secondsSince(w0);
        run_s += cpu;
        rates.push_back(static_cast<double>(st.completedItems()) / cpu);
        std::printf("chunk %d:      %.3f s for %llu items (%.0f items/s); "
                    "virt p50 %.4f ms, mean batch %.2f\n",
                    c, cpu,
                    static_cast<unsigned long long>(st.completedItems()),
                    rates.back(), st.itemLatency.p(50) * 1e3,
                    static_cast<double>(st.completedItems()) /
                        static_cast<double>(
                            std::max<size_t>(1, st.serviceTime.count())));

        for (double x : st.itemLatency.samples())
            latency.add(x);
        duration += st.duration;
        goodput_items += st.deadlineGoodput() * st.duration;
        completed += static_cast<double>(st.completedItems());
        offered += static_cast<double>(st.offeredItems());
        batches += static_cast<double>(st.serviceTime.count());
        transitions += static_cast<double>(st.brownoutTransitions);
        for (int l = 1; l < kBrownoutLevels; ++l)
            degraded += static_cast<double>(st.brownoutItems[l]);
        accounted = accounted && st.offeredItems() == chunk_items &&
            st.completedItems() > 0;
    }
    server.reset();
    if (!args.trace)
        timedSetups(false, &setups, make);
    reportSetups(rep, setups);

    std::sort(rates.begin(), rates.end());
    std::printf("timed run:    %.3f CPU s (%.3f wall s) for %.0f served of "
                "%.0f offered items (%.0f virt-ms simulated); chunk rates "
                "%.0f to %.0f items/s\n",
                run_s, run_wall_s, completed, offered, duration * 1e3,
                rates.front(), rates.back());
    std::printf("virt:         item p50 %.4f ms, p95 %.4f ms, p99 %.4f ms "
                "(%zu samples); goodput %.0f items/virt-s\n",
                latency.p(50) * 1e3, latency.p(95) * 1e3,
                latency.p(99) * 1e3, latency.count(),
                goodput_items / duration);

    rep.set("items_per_s", median(rates));
    rep.set("latency_ms_p50", latency.p(50) * 1e3);
    rep.set("bench.latency_ms_p95", latency.p(95) * 1e3);
    rep.set("serving.virt_goodput_items_per_s", goodput_items / duration);
    rep.set("serving.unserved_frac",
            offered > 0 ? (offered - completed) / offered : 0.0);
    rep.set("sched.brownout_transitions", transitions);
    rep.set("sched.degraded_item_frac",
            completed > 0 ? degraded / completed : 0.0);

    rep.check(accounted,
              "serve accounting: served + shed + cancelled == offered");

    // Golden run: small, fixed seed, outside the timed region.
    ServeSetup g = serveSetup(1);
    Server golden(g.machine, g.cfg, g.topts, g.sopts);
    ServingStats gst = golden.runOpenLoop(kServeRate, 400);
    checkGolden(rep, "serve_rmc2",
                serveFingerprint(gst) + " | " +
                    hierarchyFingerprint(g.machine, g.cfg, 16));

    if (!args.trace)
        return;
    double mean_batch = batches > 0 ? completed / batches : 1.0;
    simcacheProbe(rep, s.machine, s.cfg, s.sopts.numWorkers,
                  static_cast<int64_t>(std::round(mean_batch)), args.seed);
    // Most batches hold one or two items, so a timer at the rounded mean
    // batch misprices them: interpolate between the two batch sizes
    // around the mean.
    const auto lo = static_cast<int64_t>(std::floor(mean_batch));
    const double frac = mean_batch - static_cast<double>(lo);
    double lo_us = timerRunUs(s.machine, s.cfg, lo, args.seed);
    double hi_us = frac > 0.0
        ? timerRunUs(s.machine, s.cfg, lo + 1, args.seed)
        : lo_us;
    std::printf("timer:        %.1f us per run at batch %lld, %.1f us at "
                "%lld; mean batch %.2f\n",
                lo_us, static_cast<long long>(lo), hi_us,
                static_cast<long long>(lo + 1), mean_batch);
    simShares(rep, completed, run_s, batches,
              lo_us + frac * (hi_us - lo_us));
}

/** Items of the sched probe (shard's traced pass). */
constexpr uint64_t kSchedProbeItems = 4000;

/** Offered load of the sched probe, as a multiple of saturation. */
constexpr double kSchedProbeOverload = 1.5;

/**
 * The brownout ladder under overload: serve's configuration (10 ms
 * deadline and SLO, ladder armed) at 1.5x its closed-loop saturation, as
 * bench/study_brownout drives it. Serve's own 0.7x load never engages
 * the ladder, so the sched rows of shard's traced pass come from here.
 */
void
schedProbe(Report &rep, uint64_t seed)
{
    ServeSetup s = serveSetup(subSeed(seed, 50));
    Server server(s.machine, s.cfg, s.topts, s.sopts);
    const double rate = kSchedProbeOverload * kServeRate / 0.7;
    ServingStats st = server.runOpenLoop(rate, kSchedProbeItems);
    double completed = static_cast<double>(st.completedItems());
    double degraded = 0.0;
    for (int l = 1; l < kBrownoutLevels; ++l)
        degraded += static_cast<double>(st.brownoutItems[l]);
    rep.set("sched.brownout_transitions",
            static_cast<double>(st.brownoutTransitions));
    rep.set("sched.degraded_item_frac",
            completed > 0 ? degraded / completed : 0.0);
    std::printf("sched probe:  %llu items at %.0f items/s: %llu ladder "
                "transitions, %.0f of %.0f served items degraded, %llu of "
                "%llu offered unserved\n",
                static_cast<unsigned long long>(kSchedProbeItems), rate,
                static_cast<unsigned long long>(st.brownoutTransitions),
                degraded, completed,
                static_cast<unsigned long long>(st.offeredItems() -
                                                st.completedItems()),
                static_cast<unsigned long long>(st.offeredItems()));
}

struct ShardSetup
{
    MachineSpec machine = skylake();
    ModelConfig cfg = rmc1Small();
    uint32_t nodes = 4;
    TimerOptions topts;
    RunOptions ropts;
};

/** Sharded inferences per --seconds (about one host second each at the
 *  benchmark's commit). */
constexpr double kShardInfsPerSecond = 150.0;

ShardSetup
shardSetup(uint64_t seed, int iters)
{
    ShardSetup s;
    s.topts.batch = 16;
    s.topts.seed = subSeed(seed, 11);
    s.topts.backend = activeBackendConfig();
    RunOptions &r = s.ropts;
    r.warmupIters = 20;
    r.measureIters = iters;
    r.faults.stragglerProb = 0.05;
    r.faults.shardMtbfSeconds = 20e-3;
    r.faults.shardMttrSeconds = 1e-3;
    r.faults.seed = subSeed(seed, 12);
    r.faults.corruption.ratePerSec = 200.0;
    r.hedge.enabled = true; // delay 0: auto-calibrated p95
    ReplicaOptions rep;
    rep.replicas = 2;
    rep.router = RouterPolicy::PowerOfTwo;
    rep.seed = subSeed(seed, 13);
    r.replicas = rep;
    r.deadlineSeconds = 0.5e-3;
    r.sdc.scrubIntervalSeconds = 10e-3;
    r.sdc.inlineSampleRate = 0.1;
    r.sdc.outputGuards = true;
    return s;
}

/**
 * One node's model as ShardedInference builds it (its shardConfig): node
 * 0's round-robin share of the tables, no dense part, a placeholder head.
 */
ModelConfig
shardNodeConfig(const ModelConfig &base, uint32_t nodes)
{
    ModelConfig cfg = base;
    cfg.denseFeatures = 0;
    cfg.bottomMlp = {};
    cfg.interaction = InteractionKind::Concat;
    cfg.topMlp = {1};
    cfg.emb.tableRows.clear();
    for (int64_t t = 0; t < base.emb.numTables;
         t += static_cast<int64_t>(nodes))
        cfg.emb.tableRows.push_back(base.emb.rowsOf(t));
    cfg.emb.numTables = static_cast<int64_t>(cfg.emb.tableRows.size());
    cfg.validate();
    return cfg;
}

/** On/off pairs and inferences per run of the traced sink-cost pass. */
constexpr int kSinkPairs = 9;
constexpr int kSinkPairIters = 100;

/**
 * Timed chunks per shard run: successive run() calls on one instance,
 * each over an equal share of the inferences. items_per_s is the median
 * of the chunks' rates. In an outage the closed loop issues the rest of
 * the chunk into it, and each failed or cancelled inference advances
 * virtual time by microseconds, so repair may never arrive: one fault
 * draw can leave its chunk with a fraction of the work, not the run.
 */
constexpr int kShardChunks = 8;

/** Inferences per chaos window: 8 windows per 2 250 inferences. */
constexpr double kShardInfsPerChaosWindow = 280.0;

int
chaosWindows(int inferences)
{
    return std::max(1, static_cast<int>(std::lround(
                           inferences / kShardInfsPerChaosWindow)));
}

/** @p events chaos windows spread over the run's expected virtual span. */
ChaosSchedule
shardChaos(uint64_t seed, const ShardSetup &s, int events)
{
    double horizon = static_cast<double>(s.ropts.measureIters) * 0.12e-3;
    return ChaosSchedule::random(subSeed(seed, 14), s.nodes,
                                 s.ropts.replicas->replicas, horizon,
                                 events, /*mean_duration=*/2e-3);
}

void
setSinks(bool on)
{
    obs::Tracer &tracer = obs::Tracer::global();
    obs::RequestLogger &rlog = obs::RequestLogger::global();
    obs::TimeSeriesSampler &sampler = obs::TimeSeriesSampler::global();
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    tracer.setEnabled(false);
    tracer.clear();
    rlog.setEnabled(false);
    rlog.reset();
    sampler.setEnabled(false);
    sampler.reset();
    telem.setEnabled(false);
    telem.reset();
    obs::MetricsRegistry::global().reset();
    if (!on)
        return;
    tracer.setEnabled(true);
    rlog.configure(obs::RequestLogOptions{});
    rlog.setEnabled(true);
    sampler.configure(obs::TimeSeriesOptions{});
    sampler.setEnabled(true);
    telem.setEnabled(true);
}

std::string
shardFingerprint(const RunResult &r)
{
    return std::to_string(r.completed) + " " + std::to_string(r.failed) +
        " " + std::to_string(r.deadlineExpired) + " " +
        std::to_string(r.hedgesIssued) + " " + std::to_string(r.hedgeWins) +
        " " + std::to_string(r.retries) + " " + std::to_string(r.failovers) +
        " " + std::to_string(r.breakerOpens) + " " +
        std::to_string(r.sdc.detected) + " " + fmtDouble(r.latency.p(50)) +
        " " + fmtDouble(r.latency.p(99));
}

void
runShard(const RunArgs &args, Report &rep)
{
    const int iters = static_cast<int>(
        std::max(1.0, std::round(args.seconds * kShardInfsPerSecond)));
    const int chunk_iters = (iters + kShardChunks - 1) / kShardChunks;
    ShardSetup s = shardSetup(args.seed, chunk_iters);
    const int windows = chaosWindows(chunk_iters);
    std::printf("workload:     shard_rmc1_chaos — %s on %u x %s, batch 16, "
                "closed loop 1 caller, %d chunks of %d inferences; 2 "
                "replicas p2c, auto-p95 hedge, 5%% stragglers, MTBF 20 ms "
                "/ MTTR 1 ms, %d chaos window(s) per chunk, deadline "
                "0.5 ms, SDC 200/s with scrub + inline + guards; all sinks "
                "on\n",
                s.cfg.name.c_str(), s.nodes, s.machine.name.c_str(),
                kShardChunks, chunk_iters, windows);

    auto make = [&] {
        return std::make_unique<ShardedInference>(s.machine, s.cfg, s.nodes,
                                                  NetworkConfig{}, s.topts);
    };
    std::vector<double> setups, rates;
    auto sim = timedSetups(args.trace, &setups, make);

    // Each chunk is one run() on the same instance (its timers stay
    // warm) with its own fault, replica and chaos seeds, so the virt
    // outcome depends on --seed and --seconds only.
    RunResult r; // sums over the chunks
    double run_s = 0.0, run_wall_s = 0.0, export_s = 0.0, events = 0.0;
    double records = 0.0, node_calls = 0.0, agg_calls = 0.0;
    size_t bytes = 0;
    uint64_t injected = 0;
    bool accounted = true;
    for (int c = 0; c < kShardChunks; ++c) {
        ShardSetup sc = shardSetup(subSeed(args.seed, 200 + c), chunk_iters);
        ChaosSchedule chaos =
            shardChaos(subSeed(args.seed, 200 + c), sc, windows);
        sc.ropts.chaos = &chaos;
        setSinks(true);
        auto w0 = Clock::now();
        double t0 = cpuSeconds();
        RunResult rc = sim->run(sc.ropts);
        double cpu = cpuSeconds() - t0;
        run_wall_s += secondsSince(w0);
        run_s += cpu;
        rates.push_back(static_cast<double>(rc.completed) / cpu);
        std::printf("chunk %d:      %.3f s for %d inferences (%llu "
                    "completed, %llu failed, %llu expired; %.0f "
                    "inferences/s); virt p50 %.4f ms\n",
                    c, cpu, chunk_iters,
                    static_cast<unsigned long long>(rc.completed),
                    static_cast<unsigned long long>(rc.failed),
                    static_cast<unsigned long long>(rc.deadlineExpired),
                    rates.back(), rc.latency.p(50) * 1e3);

        for (double x : rc.latency.samples())
            r.latency.add(x);
        r.completed += rc.completed;
        r.failed += rc.failed;
        r.deadlineExpired += rc.deadlineExpired;
        r.hedgesIssued += rc.hedgesIssued;
        r.hedgeWins += rc.hedgeWins;
        r.retries += rc.retries;
        r.failovers += rc.failovers;
        r.breakerOpens += rc.breakerOpens;
        r.sdc.detected += rc.sdc.detected;
        r.duration += rc.duration;
        injected += rc.sdc.injectedRows + rc.sdc.injectedFc;
        accounted = accounted &&
            rc.completed + rc.failed + rc.deadlineExpired ==
                static_cast<uint64_t>(chunk_iters);
        // Timer calls: warm-up, completed and failed inferences run
        // every node's timer and the aggregator's; a deadline-cancelled
        // one stops its fan-out after at least one node and skips the
        // aggregator (counted as one node call).
        double full = static_cast<double>(sc.ropts.warmupIters +
                                          rc.completed + rc.failed);
        node_calls += full * s.nodes + static_cast<double>(rc.deadlineExpired);
        agg_calls += full;

        if (args.trace) {
            // Export cost and volume of the sinks this chunk filled.
            auto e0 = Clock::now();
            bytes += obs::Tracer::global().toJson().size() +
                obs::RequestLogger::global().toJsonl().size();
            export_s += secondsSince(e0);
            events += static_cast<double>(
                obs::Tracer::global().snapshot().size());
            records += static_cast<double>(obs::RequestLogger::global().size());
        }
    }
    setSinks(false);

    const double issued = static_cast<double>(kShardChunks) * chunk_iters;
    const double completed = static_cast<double>(r.completed);
    std::sort(rates.begin(), rates.end());
    std::printf("timed run:    %.3f CPU s (%.3f wall s) for %.0f inferences "
                "(%.0f completed, %.2f virt-ms simulated); chunk rates %.0f "
                "to %.0f inferences/s\n",
                run_s, run_wall_s, issued, completed, r.duration * 1e3,
                rates.front(), rates.back());
    std::printf("virt:         inference p50 %.4f ms, p95 %.4f ms, p99 "
                "%.4f ms (%zu samples); goodput %.0f inf/virt-s\n",
                r.latency.p(50) * 1e3, r.latency.p(95) * 1e3,
                r.latency.p(99) * 1e3, r.latency.count(),
                completed / r.duration);

    rep.set("items_per_s", median(rates));
    rep.set("latency_ms_p50", r.latency.p(50) * 1e3);
    rep.set("bench.latency_ms_p95", r.latency.p(95) * 1e3);
    rep.set("serving.virt_goodput_items_per_s", completed / r.duration);
    rep.set("serving.unserved_frac", 1.0 - completed / issued);
    rep.set("resilience.hedges_per_inf",
            static_cast<double>(r.hedgesIssued) / issued);
    rep.set("resilience.hedge_win_frac",
            r.hedgesIssued ? static_cast<double>(r.hedgeWins) /
                    static_cast<double>(r.hedgesIssued)
                           : 0.0);
    rep.set("resilience.retries_per_inf",
            static_cast<double>(r.retries) / issued);
    rep.set("resilience.failovers", static_cast<double>(r.failovers));
    rep.set("resilience.breaker_opens", static_cast<double>(r.breakerOpens));
    rep.set("resilience.sdc_detect_frac",
            injected ? static_cast<double>(r.sdc.detected) /
                    static_cast<double>(injected)
                     : 0.0);

    rep.check(accounted && r.completed > 0,
              "shard accounting: completed + failed + expired == issued");

    if (args.trace) {
        rep.set("obs.export_s", export_s);
        rep.set("obs.trace_events", events);
        rep.set("obs.request_records", records);
        std::printf("sinks:        %.0f trace events, %.0f request records, "
                    "%zu bytes exported in %.3f s\n",
                    events, records, bytes, export_s);

        // What the sinks cost: short runs with every sink on and off,
        // alternating which goes first, so drift in host speed hits
        // both sides alike. The median per-inference difference is
        // scaled to the workload's inference count; a cost the pairs
        // cannot resolve from 0 reads 0.
        ShardSetup ps = shardSetup(args.seed, kSinkPairIters);
        ChaosSchedule pchaos =
            shardChaos(args.seed, ps, chaosWindows(kSinkPairIters));
        ps.ropts.chaos = &pchaos;
        std::vector<double> diffs;
        bool same = true;
        for (int k = 0; k < kSinkPairs; ++k) {
            double secs[2] = {0.0, 0.0};
            std::string print[2];
            for (int j = 0; j < 2; ++j) {
                int on = (j + k) % 2;
                setSinks(on == 1);
                ShardedInference pair(ps.machine, ps.cfg, ps.nodes,
                                      NetworkConfig{}, ps.topts);
                double p0 = cpuSeconds();
                print[on] = shardFingerprint(pair.run(ps.ropts));
                secs[on] = cpuSeconds() - p0;
            }
            same = same && print[0] == print[1];
            diffs.push_back((secs[1] - secs[0]) /
                            (ps.ropts.warmupIters + kSinkPairIters));
        }
        setSinks(false);
        rep.check(same, "sinks off leave the virt outcome unchanged");
        double q1 = percentile(diffs, 25.0);
        double q3 = percentile(diffs, 75.0);
        bool resolved = q1 > 0.0 || q3 < 0.0;
        double sinks_s = resolved
            ? std::max(0.0, median(diffs)) *
                kShardChunks * (s.ropts.warmupIters + chunk_iters)
            : 0.0;
        rep.set("obs.sinks_s", sinks_s);
        std::printf("sinks cost:   %.3f s per run; per inference median "
                    "%.1f us, quartiles %.1f to %.1f us (%d on/off pairs "
                    "of %d inferences)%s\n",
                    sinks_s, median(diffs) * 1e6, q1 * 1e6, q3 * 1e6,
                    kSinkPairs, kSinkPairIters,
                    resolved ? "" : "; unresolved, the quartiles straddle 0");
    }
    sim.reset();
    if (!args.trace)
        timedSetups(false, &setups, make);
    reportSetups(rep, setups);

    // The golden run keeps the 8 chaos windows it was recorded with.
    ShardSetup g = shardSetup(1, 150);
    ChaosSchedule gchaos = shardChaos(1, g, 8);
    g.ropts.chaos = &gchaos;
    ShardedInference golden(g.machine, g.cfg, g.nodes, NetworkConfig{},
                            g.topts);
    checkGolden(rep, "shard_rmc1_chaos",
                shardFingerprint(golden.run(g.ropts)) + " | " +
                    hierarchyFingerprint(g.machine, g.cfg, 16));

    if (!args.trace)
        return;
    // A node's timer looks up that node's tables only; the aggregator's
    // times the full model, SLS included.
    ModelConfig node_cfg = shardNodeConfig(s.cfg, s.nodes);
    double node_us = timerRunUs(s.machine, node_cfg, s.topts.batch, args.seed);
    double agg_us = timerRunUs(s.machine, s.cfg, s.topts.batch, args.seed);
    std::printf("timers:       %.1f us per node run (%lld table(s)), %.1f us "
                "per aggregator run (full model); %.0f node and %.0f "
                "aggregator calls\n",
                node_us, static_cast<long long>(node_cfg.emb.numTables),
                agg_us, node_calls, agg_calls);
    simcacheProbe(rep, s.machine, node_cfg, 1, s.topts.batch, args.seed);
    schedProbe(rep, args.seed);
    // Items in units of one node's tables: the aggregator's item looks
    // up all tables.
    double table_ratio = static_cast<double>(s.cfg.emb.numTables) /
        static_cast<double>(node_cfg.emb.numTables);
    simShares(rep, (node_calls + agg_calls * table_ratio) * s.topts.batch,
              run_s, node_calls + agg_calls,
              (node_calls * node_us + agg_calls * agg_us) /
                  (node_calls + agg_calls));
}

// ---------------------------------------------------------------------
// Functional engine workloads.

struct EvalSetup
{
    ModelConfig cfg;
    int64_t batch = 64;
    /** Distinct input batches the forwards cycle through. */
    int inputs = 1;
};

EvalSetup
evalSetup(const std::string &workload)
{
    EvalSetup e;
    if (workload == "eval_rmc3") {
        e.cfg = rmc3Small().functionalScale(4096);
    } else {
        // One batch gathers 32 x 64 x 80 rows of 128 B, about 21 MB,
        // which a large LLC (105 MiB on the reference host) keeps; 16
        // batches, 336 MB of rows drawn uniformly from 1 GiB, do not,
        // so the gathers come from DRAM.
        e.cfg = rmc2Small().functionalScale(262144);
        e.inputs = 16;
    }
    return e;
}

/** The forward recomputed with the naive reference kernels. */
Tensor
referenceForward(const RecModel &model, const ModelInput &in)
{
    Tensor x = in.dense.reshaped(in.dense.shape());
    for (const FullyConnected &fc : model.bottomLayers()) {
        x = reference::fullyConnected(x, fc.weight(), fc.bias());
        reluInplace(x);
    }
    std::vector<Tensor> pooled;
    for (size_t t = 0; t < model.tables().size(); ++t) {
        pooled.push_back(reference::sparseLengthsSum(
            model.tables()[t].table(), in.sparse[t].ids,
            in.sparse[t].lengths));
    }
    std::vector<const Tensor *> feats = {&x};
    for (const Tensor &p : pooled)
        feats.push_back(&p);
    Tensor z = concatCols(feats);
    const auto &top = model.topLayers();
    for (size_t i = 0; i < top.size(); ++i) {
        z = reference::fullyConnected(z, top[i].weight(), top[i].bias());
        if (i + 1 < top.size())
            reluInplace(z);
    }
    return sigmoid(z);
}

/** RecModel::forward with each stage timed from the caller's side. */
struct StagedTimes
{
    double fc = 0.0, sls = 0.0, total = 0.0;
};

Tensor
stagedForward(const RecModel &model, const ModelInput &in, StagedTimes *t)
{
    auto t_begin = Clock::now();
    Tensor x = in.dense.reshaped(in.dense.shape());
    for (const FullyConnected &fc : model.bottomLayers()) {
        auto t0 = Clock::now();
        x = fc.forward(x);
        t->fc += secondsSince(t0);
        reluInplace(x);
    }
    const auto &tables = model.tables();
    const int64_t n = static_cast<int64_t>(tables.size());
    std::vector<Tensor> pooled(tables.size());
    auto s0 = Clock::now();
    auto lookup = [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            auto k = static_cast<size_t>(i);
            pooled[k] = tables[k].forward(in.sparse[k].ids,
                                          in.sparse[k].lengths);
        }
    };
    if (n >= globalThreadCount())
        parallelFor(0, n, 1, lookup);
    else
        lookup(0, n);
    t->sls += secondsSince(s0);
    std::vector<const Tensor *> feats = {&x};
    for (const Tensor &p : pooled)
        feats.push_back(&p);
    Tensor z = concatCols(feats);
    const auto &top = model.topLayers();
    for (size_t i = 0; i < top.size(); ++i) {
        auto t0 = Clock::now();
        z = top[i].forward(z);
        t->fc += secondsSince(t0);
        if (i + 1 < top.size())
            reluInplace(z);
    }
    Tensor out = sigmoid(z);
    t->total += secondsSince(t_begin);
    return out;
}

/** GEMM shapes (m, n, k) of one forward, in layer order. */
std::vector<std::array<int64_t, 3>>
gemmShapes(const RecModel &model, int64_t batch)
{
    std::vector<std::array<int64_t, 3>> shapes;
    for (const FullyConnected &fc : model.bottomLayers())
        shapes.push_back({batch, fc.outFeatures(), fc.inFeatures()});
    for (const FullyConnected &fc : model.topLayers())
        shapes.push_back({batch, fc.outFeatures(), fc.inFeatures()});
    return shapes;
}

/** Prints the tuner's choice per shape; returns whether the largest
 *  GEMM's plan leaves it a single M-panel the pool cannot split. */
bool
reportKernelPlans(const RecModel &model, int64_t batch, const char *label)
{
    auto shapes = gemmShapes(model, batch);
    std::array<int64_t, 3> big = shapes.front();
    for (const auto &s : shapes)
        if (s[0] * s[1] * s[2] > big[0] * big[1] * big[2])
            big = s;
    KernelCache &kc = KernelCache::global();
    for (const auto &s : shapes) {
        const KernelCache::GemmEntry &e = kc.gemm(s[0], s[1], s[2]);
        uint64_t calls = e.calls.load(std::memory_order_relaxed);
        uint64_t ns = e.ns.load(std::memory_order_relaxed);
        std::printf("kernel %s:  gemm m%lld n%lld k%lld -> %s mc%lld nc%lld "
                    "kc%lld nr%d, %.0f ns/call over %llu calls, tuned in "
                    "%.0f us\n",
                    label, static_cast<long long>(s[0]),
                    static_cast<long long>(s[1]),
                    static_cast<long long>(s[2]), kernelIsaName(e.plan.isa),
                    static_cast<long long>(e.plan.blk.mc),
                    static_cast<long long>(e.plan.blk.nc),
                    static_cast<long long>(e.plan.blk.kc), e.plan.blk.nr,
                    calls ? static_cast<double>(ns) / calls : 0.0,
                    static_cast<unsigned long long>(calls), e.tuningUs);
    }
    return kc.gemm(big[0], big[1], big[2]).plan.blk.mc >= big[0];
}

struct EvalSession
{
    std::unique_ptr<RecModel> model;
    std::vector<ModelInput> inputs;
    double setup_s = 0.0;

    const ModelInput &
    input(size_t i) const
    {
        return inputs[i % inputs.size()];
    }
};

/**
 * Set-up as a user pays it in a fresh process: an empty kernel cache,
 * model construction and table init, and warm-up forwards that run the
 * first-touch kernel tuning.
 */
EvalSession
evalSession(const EvalSetup &e, uint64_t seed)
{
    EvalSession s;
    KernelCache::global().clear();
    auto t0 = Clock::now();
    Rng rng(subSeed(seed, 21));
    s.model = std::make_unique<RecModel>(e.cfg, rng);
    for (int i = 0; i < e.inputs; ++i)
        s.inputs.push_back(s.model->randomInput(e.batch, rng));
    for (size_t i = 0; i < 2; ++i)
        (void)s.model->forward(s.input(i));
    s.setup_s = secondsSince(t0);
    return s;
}

/**
 * Forward latencies (seconds) over a wall-clock budget, cycling through
 * the session's inputs; @p first gets the last output for input 0.
 */
std::vector<double>
timeForwards(const EvalSession &s, double budget, Tensor *first)
{
    std::vector<double> lat;
    auto start = Clock::now();
    const size_t min_forwards = std::max<size_t>(3, s.inputs.size());
    while (secondsSince(start) < budget || lat.size() < min_forwards) {
        auto t0 = Clock::now();
        Tensor out = s.model->forward(s.input(lat.size()));
        lat.push_back(secondsSince(t0));
        if ((lat.size() - 1) % s.inputs.size() == 0)
            *first = std::move(out);
    }
    return lat;
}

void
runEval(const RunArgs &args, Report &rep)
{
    EvalSetup e = evalSetup(args.workload);
    const int threads = benchThreads();
    setGlobalThreadCount(threads);
    const int sessions = args.trace ? 1 : kEvalSessions;
    std::printf("workload:     %s — %s, batch %lld, %d pool threads, closed "
                "loop 1 caller, %d fixed input batch(es) in turn; %d "
                "fresh-tuning session(s)\n",
                args.workload.c_str(), e.cfg.name.c_str(),
                static_cast<long long>(e.batch), threads, e.inputs, sessions);

    std::vector<double> setups;
    std::vector<std::vector<double>> session_lat;
    Tensor want;
    int unsplit = 0, tunings = 0;
    double items_nt = 0.0;
    for (int si = 0; si < sessions; ++si) {
        EvalSession s = evalSession(e, args.seed);
        setups.push_back(s.setup_s);
        if (si == 0)
            want = referenceForward(*s.model, s.input(0));
        Tensor out;
        double budget =
            args.trace ? args.seconds / 2 : args.seconds / sessions;
        std::vector<double> lat = timeForwards(s, budget, &out);
        items_nt = static_cast<double>(lat.size() * e.batch) /
            std::accumulate(lat.begin(), lat.end(), 0.0);
        std::printf("session %d:    setup %.3f s; %zu forwards, p50 %.3f ms, "
                    "p95 %.3f ms, %.0f items/s\n",
                    si, s.setup_s, lat.size(), percentile(lat, 50.0) * 1e3,
                    percentile(lat, 95.0) * 1e3, items_nt);
        session_lat.push_back(std::move(lat));
        char label[16];
        std::snprintf(label, sizeof label, "s%d", si);
        unsplit += reportKernelPlans(*s.model, e.batch, label) ? 1 : 0;
        ++tunings;
        rep.check(out.allClose(want, 1e-4f),
                  "forward output within 1e-4 of the naive reference");
        // One session is what one eval process holds; later sessions
        // only add heap fragmentation from rebuilding the model.
        if (si == 0)
            rep.set("peak_rss_mb", peakRssMb());

        if (!args.trace)
            continue;
        // -------- traced pass on this session --------
        obs::MetricsRegistry kreg;
        KernelCache::global().exportMetrics(kreg);
        obs::MetricsSnapshot snap = kreg.snapshot();
        double tuning_us = 0.0, max_ns = 0.0;
        for (const auto &[name, v] : snap.gauges) {
            if (name.size() > 10 &&
                name.compare(name.size() - 10, 10, ".tuning_us") == 0)
                tuning_us += v;
            if (name.rfind("kernel.gemm.", 0) == 0 &&
                name.size() > 12 &&
                name.compare(name.size() - 12, 12, ".ns_per_call") == 0)
                max_ns = std::max(max_ns, v);
        }
        rep.set("kernel.tunes",
                static_cast<double>(KernelCache::global().tuneCount()));
        rep.set("kernel.tuning_s", tuning_us * 1e-6);
        rep.set("kernel.gemm_max_ns_per_call", max_ns);

        // Heap allocations per forward.
        const size_t alloc_iters = 20;
        uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
        for (size_t i = 0; i < alloc_iters; ++i)
            (void)s.model->forward(s.input(i));
        rep.set("model.allocs_per_batch",
                static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                                    a0) /
                    alloc_iters);

        // Per-stage times, from the caller's side of each layer.
        StagedTimes st;
        size_t staged = 0;
        auto st0 = Clock::now();
        Tensor staged_out;
        while (secondsSince(st0) < args.seconds / 4 ||
               staged < std::max<size_t>(3, s.inputs.size())) {
            Tensor y = stagedForward(*s.model, s.input(staged), &st);
            if (staged++ % s.inputs.size() == 0)
                staged_out = std::move(y);
        }
        rep.check(staged_out.allClose(want, 1e-4f),
                  "staged forward output within 1e-4 of the reference");
        double fc_ms = st.fc / staged * 1e3;
        double sls_ms = st.sls / staged * 1e3;
        double total_ms = st.total / staged * 1e3;
        rep.set("ops.fc_ms", fc_ms);
        rep.set("ops.sls_ms", sls_ms);
        rep.set("model.other_ms", total_ms - fc_ms - sls_ms);
        rep.set("ops.fc_frac", fc_ms / total_ms);
        rep.set("ops.sls_frac", sls_ms / total_ms);
        rep.set("bench.traced_overhead_frac",
                total_ms / (1e3 * static_cast<double>(e.batch) / items_nt) -
                    1.0);
        double flops = 0.0;
        for (const auto &sh : gemmShapes(*s.model, e.batch))
            flops += 2.0 * static_cast<double>(sh[0] * sh[1] * sh[2]);
        double sls_bytes = static_cast<double>(e.cfg.emb.numTables *
                                               e.batch *
                                               e.cfg.emb.lookupsPerTable *
                                               e.cfg.emb.embDim * 4);
        rep.set("ops.fc_gflops", flops / (fc_ms * 1e-3) / 1e9);
        rep.set("ops.sls_gbps", sls_bytes / (sls_ms * 1e-3) / 1e9);
        std::printf("stages:       fc %.3f ms, sls %.3f ms, other %.3f ms "
                    "of %.3f ms per traced forward (%zu forwards)\n",
                    fc_ms, sls_ms, total_ms - fc_ms - sls_ms, total_ms,
                    staged);

        // Pool: empty parallelFor cost and 1-thread scaling.
        const int pf_calls = 20000;
        auto p0 = Clock::now();
        for (int i = 0; i < pf_calls; ++i)
            parallelFor(0, threads, 1, [](int64_t, int64_t) {});
        rep.set("pool.parallel_for_us", secondsSince(p0) * 1e6 / pf_calls);
        setGlobalThreadCount(1);
        std::vector<double> lat1 = timeForwards(s, args.seconds / 6, &out);
        setGlobalThreadCount(threads);
        double items_1t = static_cast<double>(lat1.size() * e.batch) /
            std::accumulate(lat1.begin(), lat1.end(), 0.0);
        rep.set("pool.speedup", items_nt / items_1t);
        std::printf("pool:         %.0f items/s at 1 thread vs %.0f at %d "
                    "(speedup %.2f); empty parallelFor %.2f us\n",
                    items_1t, items_nt, threads, items_nt / items_1t,
                    rep.values["pool.parallel_for_us"]);

        // The tuner's mode varies from one tuning to the next: tune the
        // model's shapes again from an empty kernel cache, so that
        // kernel.unsplit_gemm_frac is a share of kEvalSessions tunings
        // as in the untraced run, not a 0/1 flag.
        for (int r = 1; r < kEvalSessions; ++r) {
            KernelCache::global().clear();
            (void)s.model->forward(s.input(0));
            std::snprintf(label, sizeof label, "t%d", r);
            unsplit += reportKernelPlans(*s.model, e.batch, label) ? 1 : 0;
            ++tunings;
        }
    }

    // Throughput and p50 are medians over the sessions: the typical
    // process, which a neighbour's burst in one session or a tuner mode
    // drawn by a minority of them does not move. p95 pools every
    // session's forwards so that it has at least ten samples beyond it.
    std::vector<double> tputs, p50s, all_lat;
    for (const std::vector<double> &lat : session_lat) {
        tputs.push_back(static_cast<double>(lat.size() * e.batch) /
                        std::accumulate(lat.begin(), lat.end(), 0.0));
        p50s.push_back(percentile(lat, 50.0) * 1e3);
        all_lat.insert(all_lat.end(), lat.begin(), lat.end());
    }
    rep.set("setup_s", median(setups));
    rep.set("items_per_s", median(tputs));
    rep.set("latency_ms_p50", median(p50s));
    rep.set("bench.latency_ms_p95", percentile(all_lat, 95.0) * 1e3);
    std::printf("sessions:     medians over %d; %zu forwards (p95 has %.0f "
                "beyond it)\n",
                sessions, all_lat.size(), all_lat.size() * 0.05);
    rep.set("kernel.unsplit_gemm_frac",
            static_cast<double>(unsplit) / tunings);
    std::printf("tuner:        %d of %d tunings left the largest GEMM a "
                "single M-panel\n",
                unsplit, tunings);

    if (args.trace) {
        hostCeilings(rep, threads);
        rep.set("ops.fc_peak_frac", rep.values["ops.fc_gflops"] /
                                        rep.values["host.fma_gflops_nt"]);
        rep.set("ops.sls_gather_frac", rep.values["ops.sls_gbps"] /
                                           rep.values["host.gather_gbps"]);
    }
}

bool
parseArgs(int argc, char **argv, RunArgs *out)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            out->workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            out->seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            out->seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            out->trace = val == "1";
            if (val != "0" && val != "1")
                return false;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return have_workload && argc % 2 == 1 && out->seconds > 0.0 &&
        std::isfinite(out->seconds);
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr, "usage: recperf_bench --workload <name> --seed "
                             "<n> --seconds <s> --trace <0|1>\n");
        return 2;
    }
    Report rep;
    stampHost(rep);
    if (args.workload == "serve_rmc2") {
        runServe(args, rep);
    } else if (args.workload == "shard_rmc1_chaos") {
        runShard(args, rep);
    } else if (args.workload == "eval_rmc3" ||
               args.workload == "eval_rmc2_dram") {
        runEval(args, rep);
    } else {
        std::fprintf(stderr, "unknown workload '%s' (serve_rmc2, "
                             "shard_rmc1_chaos, eval_rmc3, eval_rmc2_dram)\n",
                     args.workload.c_str());
        return 2;
    }
    if (!rep.values.count("peak_rss_mb"))
        rep.set("peak_rss_mb", peakRssMb());
    if (args.trace)
        rep.emit(kPerLayer);
    else
        rep.emit(kEndToEnd);
    return 0;
}

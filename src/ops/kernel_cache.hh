/**
 * @file
 * Shape-keyed kernel cache: tune once, memoize, dispatch forever.
 *
 * The paper's Table I observation is that RMC inference spends its
 * compute in a handful of *recurring* GEMM (M,N,K) and SLS
 * (dim, pooling) shapes. This cache exploits that: the first time a
 * shape is seen it runs a short tuning sweep — ISA tier (scalar /
 * AVX2 / AVX-512 from runtime CPUID), register-tile width NR, and
 * MC/NC/KC blocking — times each candidate on a synthetic problem of
 * the same shape, and memoizes the winner in a LuaJIT-style dispatch
 * table. Steady-state dispatch is one acquire load on an open-address
 * slot; tuning happens once, serialized under a mutex (never on the
 * thread pool, so a first touch from inside parallelFor cannot
 * deadlock or nest).
 *
 * Determinism contract (DESIGN.md §14): every bit-affecting choice is
 * a function of the ISA tier alone (see microkernels.hh). Blocking
 * and unroll candidates within a tier are bit-equivalent re-tilings,
 * so the wall-clock tuner's (inherently noisy) winner choice never
 * changes results: with a pinned `--isa`, outputs are bit-identical
 * across thread counts, blocking decisions, and cache cold/warm runs.
 *
 * Each entry self-measures (relaxed atomic call/ns counters) and the
 * whole table exports through MetricsRegistry
 * (`kernel.<shape>.{variant,tuning_us,calls,ns_per_call}`) and as
 * Chrome-trace counter events for `recperf report` / check_trace.py.
 */

#ifndef RECPERF_OPS_KERNEL_CACHE_HH
#define RECPERF_OPS_KERNEL_CACHE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "machine/simd.hh"
#include "ops/microkernels.hh"

namespace recperf {

namespace obs {
class MetricsRegistry;
class Tracer;
} // namespace obs

/** Loop-tiling parameters (bit-neutral; see determinism contract). */
struct GemmBlocking
{
    int64_t mc = 32;  ///< rows per parallel chunk (pack amortization)
    int64_t nc = 32;  ///< packed panel width
    int64_t kc = 256; ///< pack chunk depth (multiple of 64)
    int nr = 1;       ///< register-tile columns (1, 2, or 4)
};

/** Memoized decision for one GEMM shape. */
struct GemmPlan
{
    KernelIsa isa = KernelIsa::Scalar;
    GemmBlocking blk;
    microkernels::GemmRowFn fn = nullptr;
};

/** Memoized decision for one SLS shape. */
struct SlsPlan
{
    KernelIsa isa = KernelIsa::Scalar;
    int unroll = 0; ///< index into IsaKernels::slsAccum (0 = 1x, 1 = 2x)
    microkernels::SlsAccumFn fn = nullptr;
    microkernels::QslsAccumFn qfn = nullptr;
};

/**
 * Run the blocked GEMM row span [m0, m1) serially with @p plan:
 * C[i][n0+j] (+)= dot(A row i, B row n0+j) for row-major A[m][k],
 * B[n][k]. @p pack must hold gemmPackFloats(blk.nc, k, blk.kc)
 * floats. Shared by gemmBt's parallel chunks and the tuner's serial
 * measurements — one code path, one bit pattern.
 */
void runGemmPanel(const float *a, const float *b, float *c, int64_t m0,
                  int64_t m1, int64_t n, int64_t k, const GemmPlan &plan,
                  float *pack, bool accumulate);

/** Nearest power of two (ties go up; 0 stays 0) — the SLS cache key
 *  buckets average pooling so jittered lengths share one entry. */
int64_t poolingBucket(int64_t pooling);

class KernelCache
{
  public:
    /** Per-shape record: the tuned plan plus self-measurement. */
    struct GemmEntry
    {
        int64_t m = 0, n = 0, k = 0;
        GemmPlan plan;
        double tuningUs = 0.0; ///< wall time the tuning sweep took
        int candidates = 0;    ///< candidates the sweep timed
        mutable std::atomic<uint64_t> calls{0};
        mutable std::atomic<uint64_t> ns{0};

        void
        recordCall(uint64_t elapsed_ns) const
        {
            calls.fetch_add(1, std::memory_order_relaxed);
            ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
        }
    };

    struct SlsEntry
    {
        int64_t dim = 0, pooling = 0;
        bool quantized = false;
        SlsPlan plan;
        double tuningUs = 0.0;
        int candidates = 0;
        mutable std::atomic<uint64_t> calls{0};
        mutable std::atomic<uint64_t> ns{0};

        void
        recordCall(uint64_t elapsed_ns) const
        {
            calls.fetch_add(1, std::memory_order_relaxed);
            ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
        }
    };

    /** Process-wide cache; initial policy comes from RECPERF_ISA. */
    static KernelCache &global();

    KernelCache();
    KernelCache(const KernelCache &) = delete;
    KernelCache &operator=(const KernelCache &) = delete;

    /**
     * Entry for GEMM shape (m, n, k); tunes on first sight. The
     * returned reference stays valid until clear()/setPolicy().
     */
    const GemmEntry &gemm(int64_t m, int64_t n, int64_t k);

    /** Entry for SLS shape (dim, pooling bucket, quantized?). */
    const SlsEntry &sls(int64_t dim, int64_t pooling, bool quantized);

    /**
     * Pin or un-pin the ISA tier. Clears the cache (existing plans may
     * reference the wrong tier). Not thread-safe against concurrent
     * kernel calls — quiesce first (CLI startup / test setup).
     */
    void setPolicy(const IsaPolicy &policy);
    IsaPolicy policy() const;

    /**
     * When disabled, first touch installs the default ("generic")
     * blocking for the policy's tier without sweeping — the baseline
     * arm of the tuned-vs-generic benchmarks. Clears the cache.
     */
    void setTuningEnabled(bool on);

    /** Drop every entry and reset hit/tune counters (not thread-safe
     *  against concurrent kernel calls). */
    void clear();

    /** Completed tuning sweeps since construction/clear(). */
    uint64_t tuneCount() const;

    /** Human-readable table (shape -> variant, blocking, ns/call) —
     *  `recperf eval --dump-kernel-cache`. */
    std::string dumpTable() const;

    /**
     * Export `kernel.<shape>.*` and `kernel.cache.*` metrics plus
     * `hw.isa.{detected,selected}` gauges into @p reg.
     */
    void exportMetrics(obs::MetricsRegistry &reg) const;

    /**
     * Emit one Chrome-trace counter event per exported kernel counter
     * (cat "kernel", virtual lane @p tid) at virtual time @p t, so
     * check_trace.py can reconcile tracks against metrics. The caller
     * picks the time (the CLI: the end of the run's virtual timeline),
     * keeping the trace file reproducible.
     */
    void emitTraceCounters(obs::Tracer &tracer, double t,
                           uint32_t tid = 0) const;

  private:
    static constexpr size_t kSlots = 512;

    const GemmEntry *findGemm(uint64_t h, int64_t m, int64_t n,
                              int64_t k) const;
    const SlsEntry *findSls(uint64_t h, int64_t dim, int64_t pooling,
                            bool quantized) const;
    void insertGemm(uint64_t h, std::unique_ptr<GemmEntry> e);
    void insertSls(uint64_t h, std::unique_ptr<SlsEntry> e);

    GemmPlan tuneGemm(int64_t m, int64_t n, int64_t k, double *tuning_us,
                      int *candidates) const;
    SlsPlan tuneSls(int64_t dim, int64_t pooling, bool quantized,
                    double *tuning_us, int *candidates) const;
    std::vector<KernelIsa> isaCandidates() const;

    std::array<std::atomic<GemmEntry *>, kSlots> gemm_slots_{};
    std::array<std::atomic<SlsEntry *>, kSlots> sls_slots_{};
    std::vector<std::unique_ptr<GemmEntry>> gemm_owned_;
    std::vector<std::unique_ptr<SlsEntry>> sls_owned_;
    mutable std::mutex mu_; ///< guards tuning + insertion + owned_
    IsaPolicy policy_;
    std::atomic<bool> tuning_enabled_{true};
    std::atomic<uint64_t> tunes_{0};
    std::atomic<uint64_t> hits_{0};
};

} // namespace recperf

#endif // RECPERF_OPS_KERNEL_CACHE_HH

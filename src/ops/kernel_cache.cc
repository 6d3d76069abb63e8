#include "ops/kernel_cache.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "core/aligned.hh"
#include "core/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace recperf {

namespace {

using Clock = std::chrono::steady_clock;

/** Per-candidate measurement budget; candidates faster than this are
 *  re-timed over enough reps to fill it (caps timer-quantization
 *  noise without making first-touch tuning expensive). */
constexpr uint64_t kTargetNs = 40000;
constexpr int kMaxReps = 64;

uint64_t
mix64(uint64_t x)
{
    // splitmix64 finalizer — the usual full-avalanche mixer.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
gemmHash(int64_t m, int64_t n, int64_t k)
{
    uint64_t h = mix64(static_cast<uint64_t>(m));
    h = mix64(h ^ static_cast<uint64_t>(n));
    return mix64(h ^ static_cast<uint64_t>(k));
}

uint64_t
slsHash(int64_t dim, int64_t pooling, bool quantized)
{
    uint64_t h = mix64(static_cast<uint64_t>(dim) |
                       (quantized ? 1ULL << 62 : 0));
    return mix64(h ^ static_cast<uint64_t>(pooling));
}

/** Deterministic, cheap operand fill (values in [0.5, 2.47]); the
 *  tuner only measures, never checks results, but keeping operands
 *  finite and mixed-sign-free avoids denormal slowdowns skewing it. */
void
fillPattern(float *p, int64_t count)
{
    for (int64_t i = 0; i < count; ++i)
        p[i] = 0.5f + static_cast<float>((i * 37) & 63) * 0.03125f;
}

void
fillPatternU8(uint8_t *p, int64_t count)
{
    for (int64_t i = 0; i < count; ++i)
        p[i] = static_cast<uint8_t>((i * 13) & 0xff);
}

template <class F>
uint64_t
timeNs(F &&f)
{
    const Clock::time_point t0 = Clock::now();
    f();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

/** One warm-up run, then adaptive repetitions up to the budget. */
template <class F>
uint64_t
measureNs(F &&f)
{
    f();
    uint64_t t = timeNs(f);
    if (t < kTargetNs) {
        const int reps = static_cast<int>(std::min<uint64_t>(
            kMaxReps, kTargetNs / std::max<uint64_t>(t, 1) + 1));
        t = timeNs([&] {
            for (int r = 0; r < reps; ++r)
                f();
        }) / static_cast<uint64_t>(reps);
    }
    return t;
}

int64_t
roundUpTo(int64_t v, int64_t quantum)
{
    return ((v + quantum - 1) / quantum) * quantum;
}

/** Best *compiled* tier at or below the policy's resolved tier. */
KernelIsa
resolveTier(const IsaPolicy &policy)
{
    KernelIsa tier = policy.resolved();
    if (!policy.autoSelect) {
        RP_ASSERT(microkernels::kernelsFor(tier).available,
                  "ISA tier '%s' is pinned but was not compiled into "
                  "this binary",
                  kernelIsaName(tier));
        return tier;
    }
    while (tier > KernelIsa::Scalar &&
           !microkernels::kernelsFor(tier).available)
        tier = static_cast<KernelIsa>(static_cast<int>(tier) - 1);
    return tier;
}

GemmPlan
defaultGemmPlan(KernelIsa isa)
{
    GemmPlan p;
    p.isa = isa;
    p.blk = GemmBlocking{}; // the seed gemmBt's 32/32/256, nr = 1
    p.fn = microkernels::kernelsFor(isa).gemmRow;
    return p;
}

SlsPlan
defaultSlsPlan(KernelIsa isa)
{
    const microkernels::IsaKernels &k = microkernels::kernelsFor(isa);
    SlsPlan p;
    p.isa = isa;
    p.unroll = 0;
    p.fn = k.slsAccum[0];
    p.qfn = k.qslsAccum[0];
    return p;
}

} // namespace

int64_t
poolingBucket(int64_t pooling)
{
    if (pooling <= 0)
        return 0;
    int64_t lower = 1;
    while (lower * 2 <= pooling)
        lower *= 2;
    const int64_t upper = lower * 2;
    return (pooling - lower) < (upper - pooling) ? lower : upper;
}

void
runGemmPanel(const float *a, const float *b, float *c, int64_t m0,
             int64_t m1, int64_t n, int64_t k, const GemmPlan &plan,
             float *pack, bool accumulate)
{
    const GemmBlocking &blk = plan.blk;
    for (int64_t n0 = 0; n0 < n; n0 += blk.nc) {
        const int64_t w = std::min(blk.nc, n - n0);
        microkernels::gemmPackPanel(b, k, n0, w, blk.kc, pack);
        for (int64_t i = m0; i < m1; ++i) {
            plan.fn(a + i * k, pack, c + i * n + n0, w, k, blk.kc,
                    blk.nr, accumulate);
        }
    }
}

KernelCache &
KernelCache::global()
{
    static KernelCache cache;
    return cache;
}

KernelCache::KernelCache()
{
    // CLI runs validate RECPERF_ISA up front (exit 2); library users
    // (tests, benches) get the same validation here, fatally.
    if (const char *env = std::getenv("RECPERF_ISA")) {
        const std::string err = isaPolicyFromName(env, &policy_);
        if (!err.empty())
            RP_FATAL("RECPERF_ISA: %s", err.c_str());
    }
}

const KernelCache::GemmEntry *
KernelCache::findGemm(uint64_t h, int64_t m, int64_t n, int64_t k) const
{
    for (size_t i = 0; i < kSlots; ++i) {
        const size_t idx = (h + i) & (kSlots - 1);
        const GemmEntry *e =
            gemm_slots_[idx].load(std::memory_order_acquire);
        if (e == nullptr)
            return nullptr;
        if (e->m == m && e->n == n && e->k == k)
            return e;
    }
    return nullptr;
}

const KernelCache::SlsEntry *
KernelCache::findSls(uint64_t h, int64_t dim, int64_t pooling,
                     bool quantized) const
{
    for (size_t i = 0; i < kSlots; ++i) {
        const size_t idx = (h + i) & (kSlots - 1);
        const SlsEntry *e = sls_slots_[idx].load(std::memory_order_acquire);
        if (e == nullptr)
            return nullptr;
        if (e->dim == dim && e->pooling == pooling &&
            e->quantized == quantized)
            return e;
    }
    return nullptr;
}

void
KernelCache::insertGemm(uint64_t h, std::unique_ptr<GemmEntry> e)
{
    for (size_t i = 0; i < kSlots; ++i) {
        const size_t idx = (h + i) & (kSlots - 1);
        if (gemm_slots_[idx].load(std::memory_order_relaxed) == nullptr) {
            gemm_slots_[idx].store(e.get(), std::memory_order_release);
            gemm_owned_.push_back(std::move(e));
            return;
        }
    }
    RP_FATAL("kernel cache full (%zu GEMM shapes)", kSlots);
}

void
KernelCache::insertSls(uint64_t h, std::unique_ptr<SlsEntry> e)
{
    for (size_t i = 0; i < kSlots; ++i) {
        const size_t idx = (h + i) & (kSlots - 1);
        if (sls_slots_[idx].load(std::memory_order_relaxed) == nullptr) {
            sls_slots_[idx].store(e.get(), std::memory_order_release);
            sls_owned_.push_back(std::move(e));
            return;
        }
    }
    RP_FATAL("kernel cache full (%zu SLS shapes)", kSlots);
}

std::vector<KernelIsa>
KernelCache::isaCandidates() const
{
    std::vector<KernelIsa> isas;
    if (!policy_.autoSelect) {
        isas.push_back(resolveTier(policy_));
        return isas;
    }
    for (int t = 0; t <= static_cast<int>(detectIsa()); ++t) {
        const KernelIsa isa = static_cast<KernelIsa>(t);
        if (microkernels::kernelsFor(isa).available)
            isas.push_back(isa);
    }
    return isas;
}

const KernelCache::GemmEntry &
KernelCache::gemm(int64_t m, int64_t n, int64_t k)
{
    const uint64_t h = gemmHash(m, n, k);
    if (const GemmEntry *e = findGemm(h, m, n, k)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return *e;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (const GemmEntry *e = findGemm(h, m, n, k)) {
        // Lost the tuning race to another thread — still a hit.
        hits_.fetch_add(1, std::memory_order_relaxed);
        return *e;
    }
    auto e = std::make_unique<GemmEntry>();
    e->m = m;
    e->n = n;
    e->k = k;
    if (tuning_enabled_.load(std::memory_order_relaxed)) {
        e->plan = tuneGemm(m, n, k, &e->tuningUs, &e->candidates);
        tunes_.fetch_add(1, std::memory_order_relaxed);
    } else {
        e->plan = defaultGemmPlan(resolveTier(policy_));
    }
    const GemmEntry *raw = e.get();
    insertGemm(h, std::move(e));
    return *raw;
}

const KernelCache::SlsEntry &
KernelCache::sls(int64_t dim, int64_t pooling, bool quantized)
{
    const uint64_t h = slsHash(dim, pooling, quantized);
    if (const SlsEntry *e = findSls(h, dim, pooling, quantized)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return *e;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (const SlsEntry *e = findSls(h, dim, pooling, quantized)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return *e;
    }
    auto e = std::make_unique<SlsEntry>();
    e->dim = dim;
    e->pooling = pooling;
    e->quantized = quantized;
    if (tuning_enabled_.load(std::memory_order_relaxed)) {
        e->plan = tuneSls(dim, pooling, quantized, &e->tuningUs,
                          &e->candidates);
        tunes_.fetch_add(1, std::memory_order_relaxed);
    } else {
        e->plan = defaultSlsPlan(resolveTier(policy_));
    }
    const SlsEntry *raw = e.get();
    insertSls(h, std::move(e));
    return *raw;
}

GemmPlan
KernelCache::tuneGemm(int64_t m, int64_t n, int64_t k, double *tuning_us,
                      int *candidates) const
{
    const Clock::time_point sweep0 = Clock::now();

    // Candidate grid. All blockings within a tier are bit-equivalent
    // re-tilings (microkernels.hh), so the noisy wall-clock choice
    // below can never change numerical results. KC is clamped to the
    // rounded-up K so oversized chunks collapse and dedupe.
    struct Cand
    {
        KernelIsa isa;
        GemmBlocking blk;
    };
    static const GemmBlocking kVectorGrid[] = {
        {32, 32, 256, 1}, {32, 32, 256, 2}, {32, 32, 256, 4},
        {16, 32, 256, 1}, {16, 32, 256, 2}, {16, 32, 256, 4},
        {64, 64, 512, 1}, {64, 64, 512, 2}, {64, 64, 512, 4},
        {32, 64, 128, 1}, {32, 64, 128, 2}, {32, 64, 128, 4},
    };
    static const GemmBlocking kScalarGrid[] = {
        {32, 32, 256, 1},
        {32, 32, 256, 2},
    };
    const int64_t kc_cap =
        roundUpTo(std::max<int64_t>(k, 1), microkernels::kKcQuantum);
    std::vector<Cand> cands;
    const std::vector<KernelIsa> isas = isaCandidates();
    for (KernelIsa isa : isas) {
        // In auto mode the scalar tier is a fallback, not a serious
        // contender against a vector tier — probe it cheaply.
        const bool scalar_fallback = policy_.autoSelect &&
            isa == KernelIsa::Scalar && isas.size() > 1;
        const auto *grid = scalar_fallback ? kScalarGrid : kVectorGrid;
        const size_t count = scalar_fallback
            ? std::size(kScalarGrid) : std::size(kVectorGrid);
        for (size_t g = 0; g < count; ++g) {
            GemmBlocking blk = grid[g];
            blk.kc = std::min(blk.kc, kc_cap);
            const bool dup =
                std::any_of(cands.begin(), cands.end(), [&](const Cand &c) {
                    return c.isa == isa && c.blk.mc == blk.mc &&
                        c.blk.nc == blk.nc && c.blk.kc == blk.kc &&
                        c.blk.nr == blk.nr;
                });
            if (!dup)
                cands.push_back({isa, blk});
        }
    }
    RP_ASSERT(!cands.empty(), "no kernel candidates for gemm tuning");

    // Synthetic operands of the real shape; measured row count is the
    // candidate's MC so the score prices pack amortization per row.
    int64_t mrows_max = 1;
    for (const Cand &c : cands)
        mrows_max = std::max(mrows_max, std::min(m, c.blk.mc));
    AlignedBuffer<float> a(static_cast<size_t>(mrows_max * k));
    AlignedBuffer<float> b(static_cast<size_t>(n * k));
    AlignedBuffer<float> out(static_cast<size_t>(mrows_max * n));
    fillPattern(a.data(), mrows_max * k);
    fillPattern(b.data(), n * k);

    GemmPlan best;
    double best_score = 0.0;
    for (const Cand &c : cands) {
        GemmPlan plan;
        plan.isa = c.isa;
        plan.blk = c.blk;
        plan.fn = microkernels::kernelsFor(c.isa).gemmRow;
        const int64_t mrows = std::max<int64_t>(
            1, std::min(m, c.blk.mc));
        AlignedBuffer<float> pack(static_cast<size_t>(
            microkernels::gemmPackFloats(c.blk.nc, k, c.blk.kc)));
        const uint64_t t = measureNs([&] {
            runGemmPanel(a.data(), b.data(), out.data(), 0, mrows, n, k,
                         plan, pack.data(), /*accumulate=*/false);
        });
        const double score =
            static_cast<double>(t) / static_cast<double>(mrows);
        if (best.fn == nullptr || score < best_score) {
            best = plan;
            best_score = score;
        }
    }

    *candidates = static_cast<int>(cands.size());
    *tuning_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                           sweep0)
                     .count();
    return best;
}

SlsPlan
KernelCache::tuneSls(int64_t dim, int64_t pooling, bool quantized,
                     double *tuning_us, int *candidates) const
{
    const Clock::time_point sweep0 = Clock::now();

    const int64_t pool = std::max<int64_t>(1, pooling);
    const int64_t rows = 1024;
    const int64_t slots = 64;
    AlignedBuffer<float> table(static_cast<size_t>(rows * dim));
    AlignedBuffer<float> out(static_cast<size_t>(slots * dim));
    fillPattern(table.data(), rows * dim);
    std::fill(out.data(), out.data() + slots * dim, 0.0f);
    AlignedBuffer<uint8_t> codes(quantized
                                     ? static_cast<size_t>(rows * dim)
                                     : size_t{1});
    if (quantized)
        fillPatternU8(codes.data(), rows * dim);
    // Strided gather pattern: misses L1 like a real embedding walk.
    std::vector<int64_t> ids(static_cast<size_t>(slots * pool));
    for (size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<int64_t>((i * 977) % static_cast<size_t>(rows));

    SlsPlan best;
    double best_score = 0.0;
    int total = 0;
    for (KernelIsa isa : isaCandidates()) {
        const microkernels::IsaKernels &kern =
            microkernels::kernelsFor(isa);
        for (int u = 0; u < microkernels::kSlsUnrolls; ++u) {
            SlsPlan plan;
            plan.isa = isa;
            plan.unroll = u;
            plan.fn = kern.slsAccum[u];
            plan.qfn = kern.qslsAccum[u];
            const uint64_t t = measureNs([&] {
                size_t cursor = 0;
                for (int64_t s = 0; s < slots; ++s) {
                    float *dst = out.data() + s * dim;
                    for (int64_t j = 0; j < pool; ++j) {
                        const int64_t id = ids[cursor++];
                        if (quantized) {
                            plan.qfn(dst, codes.data() + id * dim, 0.02f,
                                     -1.0f, dim);
                        } else {
                            plan.fn(dst, table.data() + id * dim, dim);
                        }
                    }
                }
            });
            ++total;
            const double score = static_cast<double>(t);
            if (best.fn == nullptr || score < best_score) {
                best = plan;
                best_score = score;
            }
        }
    }

    *candidates = total;
    *tuning_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                           sweep0)
                     .count();
    return best;
}

void
KernelCache::setPolicy(const IsaPolicy &policy)
{
    clear();
    std::lock_guard<std::mutex> lock(mu_);
    policy_ = policy;
}

IsaPolicy
KernelCache::policy() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return policy_;
}

void
KernelCache::setTuningEnabled(bool on)
{
    clear();
    tuning_enabled_.store(on, std::memory_order_relaxed);
}

void
KernelCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &slot : gemm_slots_)
        slot.store(nullptr, std::memory_order_relaxed);
    for (auto &slot : sls_slots_)
        slot.store(nullptr, std::memory_order_relaxed);
    gemm_owned_.clear();
    sls_owned_.clear();
    tunes_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
}

uint64_t
KernelCache::tuneCount() const
{
    return tunes_.load(std::memory_order_relaxed);
}

std::string
KernelCache::dumpTable() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "kernel cache: %zu gemm + %zu sls entries "
                  "(detected %s, policy %s, tuning %s)\n",
                  gemm_owned_.size(), sls_owned_.size(),
                  kernelIsaName(detectIsa()),
                  policy_.autoSelect ? "auto"
                                     : kernelIsaName(policy_.pinned),
                  tuning_enabled_.load(std::memory_order_relaxed)
                      ? "on" : "off");
    out += line;
    for (const auto &e : gemm_owned_) {
        const uint64_t calls = e->calls.load(std::memory_order_relaxed);
        const uint64_t ns = e->ns.load(std::memory_order_relaxed);
        std::snprintf(
            line, sizeof line,
            "  gemm m%-5lld n%-5lld k%-5lld -> %-6s mc%-3lld nc%-3lld "
            "kc%-4lld nr%d  %8llu calls  %10.0f ns/call  (%d cands, "
            "%.0f us tuning)\n",
            static_cast<long long>(e->m), static_cast<long long>(e->n),
            static_cast<long long>(e->k), kernelIsaName(e->plan.isa),
            static_cast<long long>(e->plan.blk.mc),
            static_cast<long long>(e->plan.blk.nc),
            static_cast<long long>(e->plan.blk.kc), e->plan.blk.nr,
            static_cast<unsigned long long>(calls),
            calls ? static_cast<double>(ns) / static_cast<double>(calls)
                  : 0.0,
            e->candidates, e->tuningUs);
        out += line;
    }
    for (const auto &e : sls_owned_) {
        const uint64_t calls = e->calls.load(std::memory_order_relaxed);
        const uint64_t ns = e->ns.load(std::memory_order_relaxed);
        std::snprintf(
            line, sizeof line,
            "  sls  d%-5lld pool%-4lld %s -> %-6s unroll%d  %8llu calls "
            " %10.0f ns/call  (%d cands, %.0f us tuning)\n",
            static_cast<long long>(e->dim),
            static_cast<long long>(e->pooling),
            e->quantized ? "q8" : "f32", kernelIsaName(e->plan.isa),
            e->plan.unroll + 1, static_cast<unsigned long long>(calls),
            calls ? static_cast<double>(ns) / static_cast<double>(calls)
                  : 0.0,
            e->candidates, e->tuningUs);
        out += line;
    }
    return out;
}

namespace {

std::string
gemmMetricBase(const KernelCache::GemmEntry &e)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "kernel.gemm.m%lldn%lldk%lld",
                  static_cast<long long>(e.m), static_cast<long long>(e.n),
                  static_cast<long long>(e.k));
    return buf;
}

std::string
slsMetricBase(const KernelCache::SlsEntry &e)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "kernel.sls.d%lldp%lld%s",
                  static_cast<long long>(e.dim),
                  static_cast<long long>(e.pooling),
                  e.quantized ? "q" : "");
    return buf;
}

} // namespace

void
KernelCache::exportMetrics(obs::MetricsRegistry &reg) const
{
    std::lock_guard<std::mutex> lock(mu_);
    reg.gauge("hw.isa.detected")
        .set(static_cast<double>(static_cast<int>(detectIsa())));
    reg.gauge("hw.isa.selected")
        .set(static_cast<double>(static_cast<int>(resolveTier(policy_))));
    reg.counter("kernel.cache.hits")
        .add(hits_.load(std::memory_order_relaxed));
    reg.counter("kernel.cache.tunes")
        .add(tunes_.load(std::memory_order_relaxed));
    for (const auto &e : gemm_owned_) {
        const std::string base = gemmMetricBase(*e);
        const uint64_t calls = e->calls.load(std::memory_order_relaxed);
        const uint64_t ns = e->ns.load(std::memory_order_relaxed);
        reg.counter(base + ".calls").add(calls);
        reg.gauge(base + ".ns_per_call")
            .set(calls ? static_cast<double>(ns) /
                     static_cast<double>(calls)
                       : 0.0);
        reg.gauge(base + ".variant")
            .set(static_cast<double>(static_cast<int>(e->plan.isa)));
        reg.gauge(base + ".tuning_us").set(e->tuningUs);
    }
    for (const auto &e : sls_owned_) {
        const std::string base = slsMetricBase(*e);
        const uint64_t calls = e->calls.load(std::memory_order_relaxed);
        const uint64_t ns = e->ns.load(std::memory_order_relaxed);
        reg.counter(base + ".calls").add(calls);
        reg.gauge(base + ".ns_per_call")
            .set(calls ? static_cast<double>(ns) /
                     static_cast<double>(calls)
                       : 0.0);
        reg.gauge(base + ".variant")
            .set(static_cast<double>(static_cast<int>(e->plan.isa)));
        reg.gauge(base + ".tuning_us").set(e->tuningUs);
    }
}

void
KernelCache::emitTraceCounters(obs::Tracer &tracer, double t,
                               uint32_t tid) const
{
    if (!tracer.enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    tracer.counter("kernel", "kernel.cache.hits", t, tid,
                   static_cast<double>(
                       hits_.load(std::memory_order_relaxed)));
    tracer.counter("kernel", "kernel.cache.tunes", t, tid,
                   static_cast<double>(
                       tunes_.load(std::memory_order_relaxed)));
    for (const auto &e : gemm_owned_) {
        tracer.counter("kernel", gemmMetricBase(*e) + ".calls", t, tid,
                       static_cast<double>(
                           e->calls.load(std::memory_order_relaxed)));
    }
    for (const auto &e : sls_owned_) {
        tracer.counter("kernel", slsMetricBase(*e) + ".calls", t, tid,
                       static_cast<double>(
                           e->calls.load(std::memory_order_relaxed)));
    }
}

} // namespace recperf

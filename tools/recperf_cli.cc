/**
 * @file
 * recperf — command-line driver for the RecPerf experiments.
 *
 * Subcommands:
 *   time      time one model on one machine at one batch size
 *   colocate  sweep co-located instances on a socket
 *   serve     open-loop serving simulation with SLA accounting
 *             (optionally with fault injection, admission control,
 *             and degraded-service mode; --healthy-replicas models a
 *             tier that lost replicas and must degrade earlier)
 *   shard     sharded inference under injected faults with
 *             timeout/retry and hedged requests; --replicas >= 2 adds
 *             the failover layer (health-checked replica routing,
 *             per-replica circuit breakers, recovery warm-up)
 *   trace     report the unique-ID fraction of a trace profile
 *   eval      execute the real tensor model (thread-pool hot path)
 *             and report measured throughput
 *   report    render a run report (latency percentiles, operator
 *             breakdown, cache MPKI, roofline placement, SLO burn)
 *             from saved --metrics-out/--trace-out/--timeseries-out
 *             artifacts
 *   explain   attribute the latency tail from a --request-log-out file
 *   zoo       list the model zoo and machine fleet
 *
 * Each command takes only the options it reads: the command table
 * below names the option groups of every command, and any other
 * option is an unknown argument (exit 2), as is a malformed number.
 * `recperf <command> --help` lists exactly what a command takes.
 *
 * The global --threads flag (or RECPERF_THREADS) sizes the worker
 * pool used by every tensor kernel. time/serve/shard/eval accept
 * --trace-out=<file> (Chrome trace-event JSON; open in Perfetto) and
 * --metrics-out=<file> (metrics-registry JSON plus a summary table).
 * --counters turns on the hardware-model telemetry (FLOPs, bytes,
 * per-level cache stats, roofline gauges); on serve and shard,
 * --timeseries-out=<file> additionally samples it on a fixed
 * virtual-time cadence into JSONL (--timeseries-interval-ms sets the
 * cadence).
 *
 * Examples:
 *   recperf time --model rmc2 --machine skylake --batch 64
 *   recperf colocate --model rmc2 --machine broadwell --max-tenants 8
 *   recperf serve --model rmc1 --workers 8 --rate 50000 --sla-ms 10
 *   recperf serve --rate 80000 --admission --admit-wait 0.5 \
 *                 --straggler-prob 0.05
 *   recperf shard --model rmc2 --nodes 8 --hedge --mtbf-ms 50
 *   recperf shard --nodes 4 --replicas 2 --router p2c --hedge \
 *                 --mtbf-ms 10 --mttr-ms 1
 *   recperf trace --zipf 1.05 --repeat 0.65
 *   recperf eval --model rmc2 --batch 64 --threads 8
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/compute_backend.hh"
#include "core/args.hh"
#include "core/logging.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"
#include "machine/simd.hh"
#include "model/rec_model.hh"
#include "ops/integrity.hh"
#include "ops/kernel_cache.hh"
#include "ops/microkernels.hh"
#include "obs/hw_counters.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/request_log.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "machine/machine_spec.hh"
#include "model/zoo.hh"
#include "resilience/fault_injector.hh"
#include "resilience/policies.hh"
#include "sched/brownout.hh"
#include "serving/distributed.hh"
#include "serving/server.hh"
#include "timing/colocation.hh"
#include "timing/model_timer.hh"
#include "trace/id_generator.hh"

using namespace recperf;

namespace {

/** A bad command line: main prints it and exits 2. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Throws @p err as a UsageError unless it is empty. */
void
usageCheck(const std::string &err)
{
    if (!err.empty())
        throw UsageError(err);
}

/**
 * Integer option @p name as a T. Values below @p lo, or beyond what T
 * holds, are argument errors rather than silent wraps on the cast.
 */
template <typename T>
T
intArg(const ArgParser &args, const char *name, int64_t lo)
{
    const int64_t v = args.optionInt(name);
    if (v < lo) {
        throw UsageError(strprintf("--%s must be >= %lld (got %lld)", name,
                                   static_cast<long long>(lo),
                                   static_cast<long long>(v)));
    }
    const auto hi = static_cast<uint64_t>(std::numeric_limits<T>::max());
    if (static_cast<uint64_t>(v) > hi) {
        throw UsageError(strprintf("--%s must be <= %llu (got %lld)", name,
                                   static_cast<unsigned long long>(hi),
                                   static_cast<long long>(v)));
    }
    return static_cast<T>(v);
}

/**
 * Rejects every knob of @p knobs given on the command line while the
 * switch it tunes is off (@p on false): it would silently do nothing.
 */
void
requireSwitch(const ArgParser &args, bool on, const char *switch_name,
              std::initializer_list<const char *> knobs)
{
    if (on)
        return;
    for (const char *knob : knobs) {
        if (args.explicitlySet(knob)) {
            throw UsageError(strprintf("--%s has no effect without %s",
                                       knob, switch_name));
        }
    }
}

ModelConfig
modelByName(const std::string &name)
{
    for (const ModelConfig &cfg : allZooModels()) {
        if (cfg.name == name)
            return cfg;
    }
    if (name == "rmc1")
        return rmc1Small();
    if (name == "rmc2")
        return rmc2Small();
    if (name == "rmc3")
        return rmc3Small();
    if (name == "rmc3-dot")
        return rmc3Dot();
    if (name == "ncf")
        return ncfConfig();
    throw UsageError(strprintf("unknown model '%s' (try: rmc1, rmc2, rmc3, "
                               "rmc3-dot, ncf, or a full zoo name)",
                               name.c_str()));
}

MachineSpec
machineByName(const std::string &name)
{
    for (const MachineSpec &m : fleetMachines()) {
        std::string lower = m.name;
        for (char &c : lower)
            c = static_cast<char>(std::tolower(c));
        if (lower == name)
            return m;
    }
    throw UsageError(strprintf("unknown machine '%s' (try: haswell, "
                               "broadwell, skylake)", name.c_str()));
}

int64_t
batchArg(const ArgParser &args)
{
    return intArg<int64_t>(args, "batch", 1);
}

/** 0 is the "off" default; an explicit rate must be usable. */
double
integritySampleArg(const ArgParser &args)
{
    double sample = args.optionDouble("integrity-sample");
    if (args.explicitlySet("integrity-sample") &&
        (sample <= 0.0 || sample > 1.0)) {
        throw UsageError(strprintf("--integrity-sample must be in (0, 1] "
                                   "(got %g)", sample));
    }
    return sample;
}

/**
 * The observability sinks of one run (an empty path is off): the sink
 * group of time/serve/shard/eval plus, on serve and shard, the time
 * series and the request log.
 */
struct Sinks
{
    std::string trace;
    std::string metrics;
    std::string timeseries;
    std::string requestLog;
    std::string exemplars;
    bool counters = false;
    obs::TimeSeriesOptions timeseriesOptions;
    obs::RequestLogOptions requestLogOptions;

    bool logsRequests() const
    {
        return !requestLog.empty() || !exemplars.empty();
    }
};

Sinks
sinksFromArgs(const ArgParser &args, bool serving)
{
    Sinks s;
    s.trace = args.option("trace-out");
    s.metrics = args.option("metrics-out");
    s.counters = args.flag("counters");
    if (!serving)
        return s;
    s.timeseries = args.option("timeseries-out");
    double interval_ms = args.optionDouble("timeseries-interval-ms");
    if (!(interval_ms > 0.0)) {
        throw UsageError(strprintf(
            "--timeseries-interval-ms must be positive (got %g)",
            interval_ms));
    }
    s.timeseriesOptions.intervalSeconds = interval_ms / 1e3;
    s.requestLog = args.option("request-log-out");
    s.exemplars = args.option("exemplars-out");
    obs::RequestLogOptions &r = s.requestLogOptions;
    r.slowestK = intArg<int>(args, "request-log-k", 1);
    r.windowSeconds = args.optionDouble("request-log-window-ms") / 1e3;
    usageCheck(obs::validateRequestLogArgs(
        r.slowestK, r.windowSeconds, s.logsRequests(),
        args.explicitlySet("request-log-k"),
        args.explicitlySet("request-log-window-ms")));
    return s;
}

/**
 * Observability plumbing shared by time/serve/shard/eval: a trace path
 * enables the tracer for the run, --counters / --timeseries-out turn
 * on the hardware-model telemetry (and its virtual-time sampler), and
 * a request-log path arms the request logger.
 */
void
obsBegin(const Sinks &sinks)
{
    obs::MetricsRegistry::global().reset();
    if (!sinks.trace.empty()) {
        obs::Tracer::global().clear();
        obs::Tracer::global().setEnabled(true);
    }
    if (sinks.counters || !sinks.timeseries.empty()) {
        obs::HwTelemetry::global().reset();
        obs::HwTelemetry::global().setEnabled(true);
    }
    if (!sinks.timeseries.empty()) {
        obs::TimeSeriesSampler::global().configure(sinks.timeseriesOptions);
        obs::TimeSeriesSampler::global().setEnabled(true);
    }
    if (sinks.logsRequests()) {
        obs::RequestLogger::global().configure(sinks.requestLogOptions);
        obs::RequestLogger::global().setEnabled(true);
    }
}

/** End of the run's virtual timeline: its last virtual-lane event. */
double
virtualEndSeconds(const obs::Tracer &tracer)
{
    double end = 0.0;
    for (const obs::TraceEvent &ev : tracer.snapshot()) {
        if (ev.tid < obs::Tracer::kWallTidBase)
            end = std::max(end, (ev.tsUs + ev.durUs) / 1e6);
    }
    return end;
}

/**
 * Writes every sink of @p sinks; --metrics-out also prints the summary
 * table on stdout.
 */
void
obsEnd(const Sinks &sinks)
{
    // Export telemetry into the registry before the snapshot so the
    // metrics file carries the final counter values (check_trace.py
    // cross-checks the trace's counter tracks against them). Kernel
    // counters follow the same rule: trace tracks first (while the
    // tracer is still enabled), then the matching metrics export.
    obs::Tracer &tracer = obs::Tracer::global();
    KernelCache &kcache = KernelCache::global();
    if (tracer.enabled())
        kcache.emitTraceCounters(tracer, virtualEndSeconds(tracer));
    kcache.exportMetrics(obs::MetricsRegistry::global());
    obs::HwTelemetry &telem = obs::HwTelemetry::global();
    if (telem.enabled())
        telem.exportTo(obs::MetricsRegistry::global());
    obs::TimeSeriesSampler &sampler = obs::TimeSeriesSampler::global();
    if (sampler.enabled()) {
        sampler.exportTo(obs::MetricsRegistry::global());
        if (sampler.writeFile(sinks.timeseries)) {
            std::printf("  timeseries:    wrote %s (%zu samples)\n",
                        sinks.timeseries.c_str(), sampler.size());
        }
    }
    obs::RequestLogger &rlog = obs::RequestLogger::global();
    if (rlog.enabled()) {
        // Export before the metrics snapshot so the tail.blame.*
        // gauges land in --metrics-out; a run without logging never
        // calls exportTo, keeping its metric set byte-identical.
        rlog.exportTo(obs::MetricsRegistry::global());
        if (!sinks.requestLog.empty() && rlog.writeFile(sinks.requestLog)) {
            std::printf("  request log:   wrote %s (%zu records)\n",
                        sinks.requestLog.c_str(), rlog.size());
        }
        if (!sinks.exemplars.empty() &&
            rlog.writeExemplars(sinks.exemplars)) {
            std::printf("  exemplars:     wrote %s\n",
                        sinks.exemplars.c_str());
        }
    }
    telem.setEnabled(false);
    sampler.setEnabled(false);
    rlog.setEnabled(false);

    if (!sinks.trace.empty()) {
        tracer.setEnabled(false);
        if (tracer.writeFile(sinks.trace)) {
            std::printf("  trace:         wrote %s (%zu events)\n",
                        sinks.trace.c_str(), tracer.snapshot().size());
        }
    }
    if (sinks.metrics.empty())
        return;
    obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    if (obs::writeTextFile(sinks.metrics, snap.toJson(), "recperf"))
        std::printf("  metrics:       wrote %s\n", sinks.metrics.c_str());
    std::printf("metrics summary:\n%s", snap.table().c_str());
}

int
cmdTime(const ArgParser &args)
{
    const Sinks sinks = sinksFromArgs(args, false);
    ModelConfig cfg = modelByName(args.option("model"));
    MachineSpec machine = machineByName(args.option("machine"));
    TimerOptions opts;
    opts.batch = batchArg(args);
    opts.zipfAlpha = args.optionDouble("zipf");
    opts.repeatProb = args.optionDouble("repeat");
    opts.backend = activeBackendConfig();
    const int iters = intArg<int>(args, "iters", 1);

    obsBegin(sinks);
    ModelTimer timer(machine, cfg, opts);
    ModelTiming t = timer.steadyState(iters, iters);

    std::printf("%s on %s, batch %lld:\n", cfg.name.c_str(),
                machine.name.c_str(),
                static_cast<long long>(opts.batch));
    // Default cpu runs print nothing extra — their output is a
    // byte-equality anchor across the backend refactor.
    if (opts.backend.kind != BackendKind::Cpu) {
        const NmpConfig &nmp = opts.backend.nmp;
        std::printf("  backend:    %10s (%u ranks @ %.1f GB/s, link "
                    "%.1f GB/s, placement %s)\n",
                    timer.backend().name(), nmp.ranks, nmp.rankGBps,
                    nmp.linkGBps, nmpPlacementName(nmp.placement));
        double offload = 0.0;
        uint64_t transfer = 0;
        for (const OpTiming &op : t.ops) {
            offload += op.offloadSeconds;
            transfer += op.transferBytes;
        }
        std::printf("  offload:    %10.3f ms on-engine, %.1f KB over "
                    "the host link\n", offload * 1e3,
                    static_cast<double>(transfer) / 1024.0);
    }
    std::printf("  latency:    %10.3f ms\n", t.totalSeconds() * 1e3);
    std::printf("  throughput: %10.0f items/s (single core)\n",
                static_cast<double>(opts.batch) / t.totalSeconds());
    std::printf("  LLC MPKI:   %10.2f\n", t.llcMpki());
    std::printf("  breakdown:\n");
    for (const auto &[kind, secs] : t.breakdown()) {
        std::printf("    %-11s %8.3f ms (%5.1f%%)\n", opKindName(kind),
                    secs * 1e3, 100.0 * secs / t.totalSeconds());
    }
    obsEnd(sinks);
    return 0;
}

int
cmdColocate(const ArgParser &args)
{
    ModelConfig cfg = modelByName(args.option("model"));
    MachineSpec machine = machineByName(args.option("machine"));
    const auto max_tenants = intArg<uint32_t>(args, "max-tenants", 1);
    TimerOptions opts;
    opts.batch = batchArg(args);
    opts.backend = activeBackendConfig();

    std::printf("co-locating %s on %s (batch %lld):\n", cfg.name.c_str(),
                machine.name.c_str(),
                static_cast<long long>(opts.batch));
    std::printf("  %3s %12s %16s\n", "N", "latency", "throughput");
    double base = 0.0;
    for (uint32_t n = 1; n <= max_tenants; n *= 2) {
        ColocationSim sim(machine, cfg, opts, n);
        ColocationResult r = sim.run(10, 6);
        if (n == 1)
            base = r.meanLatency();
        std::printf("  %3u %9.3f ms %11.0f inf/s  (%.2fx latency)\n", n,
                    r.meanLatency() * 1e3, r.throughput(),
                    r.meanLatency() / base);
    }
    return 0;
}

/** Service-time faults of the faults group, shared by serve and shard
 *  (shard adds its failure process and the corruption channel). */
FaultOptions
faultsFromArgs(const ArgParser &args)
{
    FaultOptions f;
    f.stragglerProb = args.optionDouble("straggler-prob");
    f.stragglerAlpha = args.optionDouble("straggler-alpha");
    f.stragglerMin = args.optionDouble("straggler-min");
    f.spikeRatePerSec = args.optionDouble("spike-rate");
    f.spikeDurationSeconds = args.optionDouble("spike-ms") / 1e3;
    f.spikeFactor = args.optionDouble("spike-factor");
    f.seed = static_cast<uint64_t>(args.optionInt("fault-seed"));
    return f;
}

BrownoutOptions
brownoutFromArgs(const ArgParser &args)
{
    BrownoutOptions b;
    b.enabled = args.flag("brownout");
    requireSwitch(args, b.enabled, "--brownout",
                  {"brownout-enter", "brownout-growth", "brownout-exit",
                   "brownout-dwell-ms", "brownout-truncate",
                   "brownout-skip-tables"});
    b.enterBurn = args.optionDouble("brownout-enter");
    b.escalationGrowth = args.optionDouble("brownout-growth");
    b.exitFraction = args.optionDouble("brownout-exit");
    b.dwellSeconds = args.optionDouble("brownout-dwell-ms") / 1e3;
    b.truncateFraction = args.optionDouble("brownout-truncate");
    b.skipTableFraction = args.optionDouble("brownout-skip-tables");
    return b;
}

int
cmdServe(const ArgParser &args)
{
    const Sinks sinks = sinksFromArgs(args, true);
    ModelConfig cfg = modelByName(args.option("model"));
    MachineSpec machine = machineByName(args.option("machine"));
    const double rate = args.optionDouble("rate");
    if (rate <= 0.0) {
        throw UsageError(strprintf("--rate must be a positive arrival "
                                   "rate (got %g items/s)", rate));
    }
    const auto items = intArg<uint64_t>(args, "items", 1);

    ServerOptions sopts;
    sopts.numWorkers = intArg<uint32_t>(args, "workers", 1);
    sopts.maxBatch = batchArg(args);
    sopts.slaSeconds = args.optionDouble("sla-ms") / 1e3;
    sopts.admission.enabled = args.flag("admission");
    sopts.admission.maxWaitFraction = args.optionDouble("admit-wait");
    sopts.degrade.degradedMaxBatch =
        intArg<int64_t>(args, "degrade-batch", 0);
    sopts.degrade.enabled = sopts.degrade.degradedMaxBatch > 0;
    sopts.degrade.backlogFactor = args.optionDouble("backlog-factor");
    sopts.degrade.lowPriorityFraction = args.optionDouble("low-priority");
    sopts.clusterReplicas = intArg<uint32_t>(args, "cluster-replicas", 1);
    sopts.healthyReplicas = intArg<uint32_t>(args, "healthy-replicas", 0);
    sopts.deadlineSeconds = args.optionDouble("deadline-ms") / 1e3;
    sopts.brownout = brownoutFromArgs(args);
    sopts.faults = faultsFromArgs(args);
    usageCheck(sopts.validate());

    obsBegin(sinks);
    TimerOptions topts;
    topts.backend = activeBackendConfig();
    Server server(machine, cfg, topts, sopts);
    ServingStats stats = server.runOpenLoop(rate, items);

    std::printf("serving %s on %s: %u workers, max batch %lld, SLA "
                "%.1f ms\n", cfg.name.c_str(), machine.name.c_str(),
                sopts.numWorkers, static_cast<long long>(sopts.maxBatch),
                sopts.slaSeconds * 1e3);
    if (sopts.clusterReplicas > 1) {
        uint32_t healthy = sopts.healthyReplicas == 0
            ? sopts.clusterReplicas : sopts.healthyReplicas;
        std::printf("  tier health:   %10u of %u replicas (overload "
                    "responses arm %.1fx earlier)\n", healthy,
                    sopts.clusterReplicas,
                    static_cast<double>(sopts.clusterReplicas) / healthy);
    }
    std::printf("  offered rate:  %10.0f items/s\n", rate);
    if (sopts.deadlineSeconds > 0.0) {
        std::printf("  deadline:      %10.1f ms budget%s\n",
                    sopts.deadlineSeconds * 1e3,
                    sopts.brownout.enabled ? ", brownout ladder armed"
                                           : "");
    }
    stats.exportTo(obs::MetricsRegistry::global());
    std::fputs(ServingStats::summarize(
                   obs::MetricsRegistry::global().snapshot())
                   .c_str(),
               stdout);
    obsEnd(sinks);
    return 0;
}

void
printResilientResult(const RunResult &r)
{
    std::printf("  completed:     %10llu inferences (%.2f%% "
                "availability)\n",
                static_cast<unsigned long long>(r.completed),
                r.availability() * 100);
    std::printf("  failed:        %10llu (retry exhaustion)\n",
                static_cast<unsigned long long>(r.failed));
    if (r.deadlineExpired || r.deadlineFastFails) {
        std::printf("  deadline-shed: %10llu cancelled (%llu fail-fast "
                    "skips)\n",
                    static_cast<unsigned long long>(r.deadlineExpired),
                    static_cast<unsigned long long>(r.deadlineFastFails));
    }
    std::printf("  latency p50:   %10.3f ms\n", r.latency.p(50) * 1e3);
    std::printf("  latency p99:   %10.3f ms\n", r.latency.p(99) * 1e3);
    std::printf("  goodput:       %10.0f inf/s\n", r.goodput());
    std::printf("  hedges:        %10llu issued, %llu won\n",
                static_cast<unsigned long long>(r.hedgesIssued),
                static_cast<unsigned long long>(r.hedgeWins));
    std::printf("  retries:       %10llu (%llu timeouts, %llu down "
                "shards)\n",
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.shardDownEncounters));
    std::printf("  hedge cost:    %10.3f ms compute, %.1f KB network\n",
                r.hedgeExtraSeconds * 1e3, r.hedgeExtraBytes / 1024.0);
    std::printf("  wasted:        %10.3f ms (timeouts + failures)\n",
                r.wastedSeconds * 1e3);
}

/** SDC defense summary; silent when no controller ran. */
void
printSdcSummary(const RunResult &r)
{
    if (!r.sdc.active)
        return;
    const SdcStats &s = r.sdc;
    std::printf("  integrity:     %llu row + %llu FC corruptions, %llu "
                "detected (%llu scrub, %llu inline, %llu guard, %llu "
                "canary)\n",
                static_cast<unsigned long long>(s.injectedRows),
                static_cast<unsigned long long>(s.injectedFc),
                static_cast<unsigned long long>(s.detected),
                static_cast<unsigned long long>(s.detectedScrub),
                static_cast<unsigned long long>(s.detectedInline),
                static_cast<unsigned long long>(s.detectedGuard),
                static_cast<unsigned long long>(s.detectedCanary));
    std::printf("  quarantine:    %llu rows quarantined, %llu repairs, "
                "%llu rehydrates (%llu rows wiped)\n",
                static_cast<unsigned long long>(s.quarantinedRows),
                static_cast<unsigned long long>(s.repairs),
                static_cast<unsigned long long>(s.rehydrates),
                static_cast<unsigned long long>(s.rowsRehydrated));
    std::printf("  escapes:       %llu corrupted responses served, "
                "%llu degraded\n",
                static_cast<unsigned long long>(s.corruptedServed),
                static_cast<unsigned long long>(s.degradedServed));
    if (!s.detectionLatency.empty()) {
        std::printf("  detection:     %10.3f ms p50, %.3f ms p99 "
                    "injection-to-detection\n",
                    s.detectionLatency.p(50.0) * 1e3,
                    s.detectionLatency.p(99.0) * 1e3);
    }
}

/** Memory-corruption channel of the shard failure model; its
 *  sub-knobs do nothing without an event rate. */
CorruptionOptions
corruptionFromArgs(const ArgParser &args)
{
    CorruptionOptions c;
    c.ratePerSec = args.optionDouble("corrupt-rate");
    requireSwitch(args, c.ratePerSec > 0.0, "--corrupt-rate",
                  {"corrupt-zipf", "corrupt-multi-bit", "corrupt-stuck-row",
                   "corrupt-fc"});
    c.zipfAlpha = args.optionDouble("corrupt-zipf");
    c.multiBitFraction = args.optionDouble("corrupt-multi-bit");
    c.stuckRowFraction = args.optionDouble("corrupt-stuck-row");
    c.fcFraction = args.optionDouble("corrupt-fc");
    return c;
}

/** SDC detection/recovery ladder options (shard). */
SdcOptions
sdcFromArgs(const ArgParser &args)
{
    SdcOptions s;
    s.scrubIntervalSeconds = args.optionDouble("scrub-interval-ms") / 1e3;
    s.inlineSampleRate = integritySampleArg(args);
    s.outputGuards = args.flag("integrity-guards");
    s.canaryIntervalSeconds =
        args.optionDouble("integrity-canary-ms") / 1e3;
    s.repairRttSeconds = args.optionDouble("repair-rtt-us") / 1e6;
    s.repairBandwidthGBps = args.optionDouble("repair-gbps");
    s.drainDensity = args.optionDouble("drain-density");
    return s;
}

/** The failover layer of `shard --replicas R` (R >= 2). */
ReplicaOptions
replicasFromArgs(const ArgParser &args, uint32_t replicas)
{
    ReplicaOptions r;
    r.replicas = replicas;
    if (!routerPolicyFromName(args.option("router"), &r.router)) {
        throw UsageError(strprintf("unknown --router '%s' (try: "
                                   "primary-first, least-loaded, p2c)",
                                   args.option("router").c_str()));
    }
    r.breaker.errorThreshold = intArg<int>(args, "breaker-errors", 1);
    r.breaker.openSeconds = args.optionDouble("breaker-open-ms") / 1e3;
    r.breaker.probeAdmitProb = args.optionDouble("breaker-probe");
    r.breaker.closeAfterProbes =
        intArg<int>(args, "breaker-close-probes", 1);
    r.warmupSeconds = args.optionDouble("warmup-ms") / 1e3;
    r.warmupFactor = args.optionDouble("warmup-factor");
    r.seed = static_cast<uint64_t>(args.optionInt("fault-seed"));
    return r;
}

int
cmdShard(const ArgParser &args)
{
    const Sinks sinks = sinksFromArgs(args, true);
    ModelConfig cfg = modelByName(args.option("model"));
    MachineSpec machine = machineByName(args.option("machine"));
    TimerOptions topts;
    topts.batch = batchArg(args);
    topts.backend = activeBackendConfig();
    const auto nodes = intArg<uint32_t>(args, "nodes", 1);
    if (nodes > cfg.emb.numTables) {
        throw UsageError(strprintf("--nodes %u exceeds %s's %lld embedding "
                                   "tables", nodes, cfg.name.c_str(),
                                   static_cast<long long>(
                                       cfg.emb.numTables)));
    }

    RunOptions ropts;
    ropts.warmupIters = 20;
    ropts.measureIters = intArg<int>(args, "iters", 1);
    // Redundant with topts.backend for the CLI, but exercises the
    // run-level override every embedding client can use.
    ropts.backend = activeBackendConfig();
    FaultOptions &faults = ropts.faults;
    faults = faultsFromArgs(args);
    faults.shardMtbfSeconds = args.optionDouble("mtbf-ms") / 1e3;
    faults.shardMttrSeconds = args.optionDouble("mttr-ms") / 1e3;
    faults.corruption = corruptionFromArgs(args);
    ropts.retry.timeoutSeconds = args.optionDouble("timeout-ms") / 1e3;
    ropts.retry.maxRetries = intArg<int>(args, "retries", 0);
    // Retries that could never fire are a configuration mistake, but
    // only when the user actually asked for them.
    if (args.explicitlySet("retries") && ropts.retry.maxRetries > 0 &&
        ropts.retry.timeoutSeconds <= 0.0 &&
        faults.shardMtbfSeconds <= 0.0) {
        throw UsageError("--retries can never trigger with a zero "
                         "--timeout-ms and no shard failures (--mtbf-ms "
                         "0); set a timeout, enable failures, or use "
                         "--retries 0");
    }
    ropts.hedge.enabled = args.flag("hedge");
    requireSwitch(args, ropts.hedge.enabled, "--hedge", {"hedge-ms"});
    ropts.hedge.delaySeconds = args.optionDouble("hedge-ms") / 1e3;
    ropts.deadlineSeconds = args.optionDouble("deadline-ms") / 1e3;
    ropts.sdc = sdcFromArgs(args);

    // One replica runs the single-copy path, where a hedge assumes an
    // implicit spare replica: `ropts.replicas` stays disengaged, and
    // the failover layer's knobs would do nothing.
    const auto replica_count = intArg<uint32_t>(args, "replicas", 1);
    const bool replicated = replica_count > 1;
    requireSwitch(args, replicated, "--replicas >= 2",
                  {"router", "breaker-errors", "breaker-open-ms",
                   "breaker-probe", "breaker-close-probes", "warmup-ms",
                   "warmup-factor", "chaos-events", "chaos-ms"});
    ChaosSchedule chaos;
    const auto chaos_events = intArg<uint32_t>(args, "chaos-events", 0);
    const double chaos_ms = args.optionDouble("chaos-ms");
    if (replicated)
        ropts.replicas = replicasFromArgs(args, replica_count);
    if (replicated && chaos_events > 0) {
        if (chaos_ms <= 0.0) {
            throw UsageError(strprintf("--chaos-ms must be positive when "
                                       "chaos windows are scripted (got "
                                       "%g)", chaos_ms));
        }
        // Horizon heuristic: virtual time advances by roughly one
        // per-inference latency per iteration; scale from the SLA-ish
        // chaos window length instead of pre-timing the model.
        double horizon =
            static_cast<double>(ropts.measureIters) * chaos_ms / 1e3;
        chaos = ChaosSchedule::random(faults.seed, nodes, replica_count,
                                      horizon, chaos_events,
                                      chaos_ms / 1e3);
        ropts.chaos = &chaos;
    }
    usageCheck(ropts.validate());
    const std::string &fault_log_path = args.option("fault-log-out");
    FaultLog fault_log;
    if (!fault_log_path.empty())
        ropts.faultLog = &fault_log;

    obsBegin(sinks);
    ShardedInference sim(machine, cfg, nodes, NetworkConfig{}, topts);

    std::printf("sharded %s on %u x %s, batch %lld (straggler p=%.2f, "
                "MTBF %.0f ms, hedge %s)\n", cfg.name.c_str(), nodes,
                machine.name.c_str(),
                static_cast<long long>(topts.batch),
                faults.stragglerProb, faults.shardMtbfSeconds * 1e3,
                ropts.hedge.enabled ? "on" : "off");
    if (ropts.deadlineSeconds > 0.0) {
        std::printf("  deadline:      %10.1f ms budget per inference\n",
                    ropts.deadlineSeconds * 1e3);
    }
    if (faults.corruption.enabled() || ropts.sdc.anyDefense()) {
        std::printf("  sdc:           %.1f corruptions/s, scrub %.1f ms, "
                    "inline %.2f, guards %s, canary %.1f ms\n",
                    faults.corruption.ratePerSec,
                    ropts.sdc.scrubIntervalSeconds * 1e3,
                    ropts.sdc.inlineSampleRate,
                    ropts.sdc.outputGuards ? "on" : "off",
                    ropts.sdc.canaryIntervalSeconds * 1e3);
    }

    RunResult r = sim.run(ropts);
    if (replicated) {
        const ReplicaOptions &rep = *ropts.replicas;
        std::printf("  failover layer: %u replicas/shard, router %s, "
                    "breaker %d errors -> open %.1f ms, warm-up %.2fx "
                    "over %.1f ms%s\n", rep.replicas,
                    routerPolicyName(rep.router),
                    rep.breaker.errorThreshold,
                    rep.breaker.openSeconds * 1e3, r.warmupFactorUsed,
                    rep.warmupSeconds * 1e3,
                    chaos_events > 0
                        ? strprintf(", %u chaos windows", chaos_events)
                            .c_str()
                        : "");
    }
    printResilientResult(r);
    if (replicated) {
        std::printf("  failovers:     %10llu served by a backup "
                    "replica\n",
                    static_cast<unsigned long long>(r.failovers));
        if (r.replicaSkips) {
            std::printf("  replica skips: %10llu EWMA over the "
                        "remaining deadline budget\n",
                        static_cast<unsigned long long>(r.replicaSkips));
        }
        std::printf("  breakers:      %10llu opened, %llu re-closed, "
                    "%llu probes, %llu all-open rejects\n",
                    static_cast<unsigned long long>(r.breakerOpens),
                    static_cast<unsigned long long>(r.breakerCloses),
                    static_cast<unsigned long long>(r.probesAdmitted),
                    static_cast<unsigned long long>(r.breakerRejects));
        std::printf("  warm-up cost:  %10.3f ms re-filling recovered "
                    "replicas' caches\n", r.warmupPenaltySeconds * 1e3);
    }
    printSdcSummary(r);
    if (!fault_log_path.empty()) {
        fault_log.writeFile(fault_log_path);
        std::printf("  fault log:     wrote %s (%zu events)\n",
                    fault_log_path.c_str(), fault_log.size());
    }
    r.exportTo(obs::MetricsRegistry::global());
    obsEnd(sinks);
    return 0;
}

int
cmdEval(const ArgParser &args)
{
    // Unlike `time` (the calibrated timing model), this executes the
    // real tensor graph on the thread pool and reports wall-clock
    // throughput — the honest hot path the execution engine serves.
    const Sinks sinks = sinksFromArgs(args, false);
    const int64_t rows_cap = intArg<int64_t>(args, "rows-cap", 1);
    ModelConfig cfg =
        modelByName(args.option("model")).functionalScale(rows_cap);
    const int64_t batch = batchArg(args);
    const int iters = intArg<int>(args, "iters", 1);

    // Functional integrity: shield the real tables with per-row
    // checksums, optionally flip seeded bits into them, and let the
    // inline SLS hook detect and repair whatever the fixed input
    // actually gathers. With --integrity-sample alone the output
    // checksum is bit-identical to an unshielded run.
    const double sample = integritySampleArg(args);
    const int64_t flips = intArg<int64_t>(args, "corrupt-events", 0);
    if (flips > 0 && sample <= 0.0) {
        throw UsageError("--corrupt-events needs --integrity-sample to "
                         "detect and repair the flips");
    }

    Rng rng(static_cast<uint64_t>(args.optionInt("seed")));
    RecModel model(cfg, rng);
    ModelInput input = model.randomInput(batch, rng);
    std::vector<std::unique_ptr<IntegrityShield>> shields;
    if (sample > 0.0) {
        IntegrityRuntime &integrity = IntegrityRuntime::global();
        integrity.configure(sample, /*repair_on_detect=*/true);
        std::vector<EmbeddingTable> &tables = model.tables();
        for (size_t t = 0; t < tables.size(); ++t) {
            shields.push_back(std::make_unique<IntegrityShield>(
                IntegrityShield::forTable(tables[t],
                                          strprintf("table%zu", t))));
            shields.back()->seal();
            integrity.attach(&tables[t], shields.back().get());
        }
        if (flips > 0) {
            Rng corrupt_rng(
                static_cast<uint64_t>(args.optionInt("fault-seed")) ^
                0x5dc0ffeeb5ULL);
            for (int64_t i = 0; i < flips; ++i) {
                size_t t = static_cast<size_t>(
                    corrupt_rng.nextBelow(shields.size()));
                int64_t row = static_cast<int64_t>(corrupt_rng.nextBelow(
                    static_cast<uint64_t>(shields[t]->rows())));
                uint64_t bit = corrupt_rng.nextBelow(
                    static_cast<uint64_t>(shields[t]->rowBytes()) * 8);
                shields[t]->flipBit(row, bit);
            }
        }
        integrity.setEnabled(true);
    }

    for (int i = 0; i < 2; ++i)
        (void)model.forward(input); // warm-up
    obsBegin(sinks);
    obs::LatencyHistogram batch_hist =
        obs::MetricsRegistry::global().histogram("eval.batch_seconds");
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        auto it0 = std::chrono::steady_clock::now();
        (void)model.forward(input);
        batch_hist.record(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - it0)
                              .count());
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count() /
        static_cast<double>(iters);
    obs::MetricsRegistry::global()
        .gauge("eval.throughput_items_per_s")
        .set(static_cast<double>(batch) / secs);

    std::printf("eval %s (rows capped at %lld), batch %lld, "
                "%d threads:\n",
                cfg.name.c_str(), static_cast<long long>(rows_cap),
                static_cast<long long>(batch), globalThreadCount());
    std::printf("  latency:    %10.3f ms / batch (measured)\n",
                secs * 1e3);
    std::printf("  throughput: %10.0f items/s\n",
                static_cast<double>(batch) / secs);
    // FNV-1a over the final forward's output bytes: with a pinned
    // --isa this line is bit-identical across thread counts and cache
    // cold/warm runs (CI diffs it as the determinism anchor).
    Tensor out = model.forward(input);
    uint64_t hash = fnv1a(out.data(),
                          static_cast<size_t>(out.size()) * sizeof(float));
    std::printf("  checksum:   %016llx (isa %s)\n",
                static_cast<unsigned long long>(hash),
                KernelCache::global().policy().autoSelect
                    ? "auto"
                    : kernelIsaName(
                          KernelCache::global().policy().pinned));
    if (sample > 0.0) {
        IntegrityRuntime &integrity = IntegrityRuntime::global();
        integrity.exportTo(obs::MetricsRegistry::global());
        std::printf("  integrity:  %llu/%llu batches verified, %llu "
                    "corruptions detected, %llu rows repaired\n",
                    static_cast<unsigned long long>(
                        integrity.batchesVerified()),
                    static_cast<unsigned long long>(
                        integrity.batchesSeen()),
                    static_cast<unsigned long long>(
                        integrity.corruptionsDetected()),
                    static_cast<unsigned long long>(
                        integrity.rowsRepaired()));
        integrity.reset();
    }
    if (args.flag("dump-kernel-cache"))
        std::fputs(KernelCache::global().dumpTable().c_str(), stdout);
    obsEnd(sinks);
    return 0;
}

int
cmdTrace(const ArgParser &args)
{
    TraceProfile profile{"cli", args.optionDouble("zipf"),
                         args.optionDouble("repeat"), 8192};
    const int64_t rows = intArg<int64_t>(args, "rows", 1);
    const auto items = intArg<size_t>(args, "items", 1);
    Rng rng(static_cast<uint64_t>(args.optionInt("seed")));
    auto gen = makeGenerator(profile, rows, rng.split());
    auto trace = gen->draw(items);
    std::printf("trace: zipf alpha %.2f, repeat prob %.2f over %lld "
                "rows\n", profile.zipfAlpha, profile.repeatProb,
                static_cast<long long>(rows));
    std::printf("  unique sparse IDs: %.1f%% of %zu draws\n",
                uniqueFraction(trace) * 100.0, trace.size());
    return 0;
}

/** Slurp the file at option @p flag into @p out; false when the option
 *  is empty; unreadable is an argument error. */
bool
readArtifact(const ArgParser &args, const char *flag, std::string *out)
{
    const std::string &path = args.option(flag);
    if (path.empty())
        return false;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw UsageError(strprintf("cannot read %s", path.c_str()));
    out->clear();
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    std::fclose(f);
    return true;
}

/** Print a rendered view; an empty one failed with @p err (exit 1). */
int
printRendered(const std::string &view, const std::string &err)
{
    if (view.empty()) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    std::fputs(view.c_str(), stdout);
    return 0;
}

int
cmdReport(const ArgParser &args)
{
    obs::ReportInputs inputs;
    bool any = readArtifact(args, "metrics", &inputs.metricsJson);
    any |= readArtifact(args, "trace", &inputs.traceJson);
    any |= readArtifact(args, "timeseries", &inputs.timeseriesJsonl);
    if (!any) {
        throw UsageError("report needs at least one artifact (--metrics, "
                         "--trace, and/or --timeseries)");
    }
    std::string err;
    std::string report = obs::renderReport(inputs, err);
    return printRendered(report, err);
}

int
cmdExplain(const ArgParser &args)
{
    obs::ExplainInputs inputs;
    if (!readArtifact(args, "request-log", &inputs.requestLogJsonl)) {
        throw UsageError("explain needs --request-log FILE (a serve/shard "
                         "--request-log-out artifact); join a --metrics "
                         "export to cross-check the blame gauges");
    }
    readArtifact(args, "metrics", &inputs.metricsJson);
    inputs.top = intArg<int>(args, "top", 1);
    std::string err;
    std::string view = obs::renderExplain(inputs, err);
    return printRendered(view, err);
}

int
cmdZoo(const ArgParser &)
{
    std::printf("model zoo:\n");
    for (const ModelConfig &cfg : allZooModels()) {
        std::printf("  %-12s %2lld tables x %8lld rows, %3lld lookups, "
                    "%6.2f GB emb, %8.2fM FC params\n", cfg.name.c_str(),
                    static_cast<long long>(cfg.emb.numTables),
                    static_cast<long long>(cfg.emb.rowsPerTable),
                    static_cast<long long>(cfg.emb.lookupsPerTable),
                    cfg.embStorageBytes() / 1e9,
                    cfg.fcParamCount() / 1e6);
    }
    std::printf("machines:\n");
    for (const MachineSpec &m : fleetMachines()) {
        std::printf("  %-10s %.1f GHz, %2u cores/socket, %s, L3 %.1f MB "
                    "(%s), %s\n", m.name.c_str(), m.freqGHz,
                    m.coresPerSocket, simdIsaName(m.simd.isa),
                    m.l3.sizeBytes / 1024.0 / 1024.0,
                    m.policy == InclusionPolicy::Inclusive ? "inclusive"
                                                           : "exclusive",
                    m.dram.ddrType.c_str());
    }
    return 0;
}

/**
 * Resolves the global group: --threads and the backend spec, where the
 * backend family and kernel ISA tier are one validated unit (flag > env
 * > default for each component). Both sources are validated: a bad env
 * var is an error even when an explicit flag would override it.
 */
void
applyGlobalOptions(const ArgParser &args)
{
    const int threads = intArg<int>(args, "threads", 0);
    if (threads > 0)
        setGlobalThreadCount(threads);

    std::string backend_name = args.option("backend");
    if (const char *env = std::getenv("RECPERF_BACKEND")) {
        if (!backendKindFromName(env, nullptr)) {
            throw UsageError(strprintf("RECPERF_BACKEND: unknown backend "
                                       "'%s' (expected cpu|nmp)", env));
        }
        if (!args.explicitlySet("backend"))
            backend_name = env;
    }
    std::string isa_name = args.option("isa");
    if (const char *env = std::getenv("RECPERF_ISA")) {
        IsaPolicy probe;
        std::string env_err = isaPolicyFromName(env, &probe);
        if (!env_err.empty())
            throw UsageError("RECPERF_ISA: " + env_err);
        if (!args.explicitlySet("isa"))
            isa_name = env;
    }
    BackendConfig backend;
    std::string err = backendConfigFromSpec(backend_name, isa_name, &backend);
    if (!err.empty())
        throw UsageError("--backend/--isa: " + err);

    const bool nmp = backend.kind == BackendKind::Nmp;
    requireSwitch(args, nmp, "--backend=nmp",
                  {"nmp-ranks", "nmp-rank-gbps", "nmp-row-ns",
                   "nmp-link-gbps", "nmp-launch-us", "nmp-placement",
                   "nmp-min-table-kb", "nmp-host-llc-frac"});
    if (nmp) {
        NmpConfig &cfg = backend.nmp;
        cfg.ranks = intArg<uint32_t>(args, "nmp-ranks", 0);
        cfg.rankGBps = args.optionDouble("nmp-rank-gbps");
        cfg.rowAccessNs = args.optionDouble("nmp-row-ns");
        cfg.linkGBps = args.optionDouble("nmp-link-gbps");
        cfg.launchUs = args.optionDouble("nmp-launch-us");
        cfg.minTableBytes =
            intArg<uint64_t>(args, "nmp-min-table-kb", 0) * 1024;
        cfg.hostLlcFraction = args.optionDouble("nmp-host-llc-frac");
        if (!nmpPlacementFromName(args.option("nmp-placement"),
                                  &cfg.placement)) {
            throw UsageError(strprintf("--nmp-placement: unknown policy "
                                       "'%s' (expected auto|all|none)",
                                       args.option("nmp-placement")
                                           .c_str()));
        }
        err = cfg.validate();
        if (!err.empty())
            throw UsageError("--backend=nmp: " + err);
    }
    setActiveBackend(backend);
}

/**
 * Option groups. A knob belongs to the group of every command that
 * reads it, and each command registers only its own groups, so a knob
 * the command would ignore is an unknown argument.
 */
enum Group : unsigned
{
    kGlobal = 1u << 0,     ///< --help, --threads and the backend spec
    kModel = 1u << 1,      ///< model and batch
    kMachine = 1u << 2,    ///< simulated machine
    kSinks = 1u << 3,      ///< trace, metrics, counters
    kRequestLog = 1u << 4, ///< per-request log (serving lanes only)
    kFaults = 1u << 5,     ///< service-time faults and deadline budget
    kTime = 1u << 6,
    kColocate = 1u << 7,
    kServe = 1u << 8,
    kShard = 1u << 9,
    kEval = 1u << 10,
    kTrace = 1u << 11,
    kReport = 1u << 12,
    kExplain = 1u << 13,
};

/** One command-line knob, declared once. */
struct Knob
{
    const char *name;
    unsigned groups;
    ArgType type;
    const char *def; ///< nullptr for a boolean flag
    const char *help;
};

constexpr ArgType kInt = ArgType::Int;
constexpr ArgType kNum = ArgType::Number;
constexpr ArgType kText = ArgType::Text;

const Knob kKnobs[] = {
    {"help", kGlobal, kText, nullptr, "show this help"},
    {"threads", kGlobal, kInt, "0",
     "tensor-op worker threads (0 = RECPERF_THREADS or hardware)"},
    {"backend", kGlobal, kText, "cpu",
     "compute backend: cpu|nmp (overrides RECPERF_BACKEND; nmp "
     "offloads SparseLengthsSum to a near-memory engine)"},
    {"isa", kGlobal, kText, "auto",
     "kernel ISA tier: scalar|avx2|avx512|auto (overrides RECPERF_ISA; "
     "pinned tiers are bit-deterministic; part of the backend spec)"},
    {"nmp-ranks", kGlobal, kInt, "8",
     "PIM-enabled memory ranks (nmp backend)"},
    {"nmp-rank-gbps", kGlobal, kNum, "9.6",
     "in-rank gather bandwidth per rank, GB/s (nmp)"},
    {"nmp-row-ns", kGlobal, kNum, "50",
     "per-row in-rank access latency, ns (nmp)"},
    {"nmp-link-gbps", kGlobal, kNum, "12",
     "host<->PIM link bandwidth, GB/s (nmp)"},
    {"nmp-launch-us", kGlobal, kNum, "2",
     "per-offloaded-op launch round trip, us (nmp)"},
    {"nmp-placement", kGlobal, kText, "auto",
     "which tables offload: auto|all|none (nmp)"},
    {"nmp-min-table-kb", kGlobal, kInt, "1024",
     "auto placement: smaller tables stay on host (nmp)"},
    {"nmp-host-llc-frac", kGlobal, kNum, "0.5",
     "auto placement: tables within this fraction of the LLC share "
     "stay on host (nmp)"},

    {"model", kModel, kText, "rmc1", "model: rmc1|rmc2|rmc3|rmc3-dot|ncf"},
    {"batch", kModel, kInt, "16", "batch size / max serving batch"},
    {"machine", kMachine, kText, "broadwell",
     "machine: haswell|broadwell|skylake"},
    {"iters", kTime | kShard | kEval, kInt, "20", "measured iterations"},
    {"items", kServe | kTrace, kInt, "20000", "items to simulate"},
    {"zipf", kTime | kTrace, kNum, "1.1", "trace popularity skew"},
    {"repeat", kTime | kTrace, kNum, "0.5",
     "trace re-reference probability"},
    {"seed", kTrace | kEval, kInt, "42", "random seed"},
    {"max-tenants", kColocate, kInt, "8", "co-location sweep upper bound"},
    {"rows", kTrace, kInt, "2000000", "embedding rows"},

    {"trace-out", kSinks, kText, "",
     "write a Chrome trace-event JSON of the run"},
    {"metrics-out", kSinks, kText, "",
     "write the metrics registry as JSON and print the summary table"},
    {"counters", kSinks, kText, nullptr,
     "collect hardware-model telemetry (FLOPs, bytes, cache stats, "
     "roofline gauges)"},
    {"timeseries-out", kServe | kShard, kText, "",
     "sample telemetry/SLO burn on a virtual-time cadence and write "
     "JSONL (implies --counters)"},
    {"timeseries-interval-ms", kServe | kShard, kNum, "10",
     "virtual-time sampling cadence for --timeseries-out"},
    {"request-log-out", kRequestLog, kText, "",
     "write one causal JSON record per request as JSONL"},
    {"exemplars-out", kRequestLog, kText, "",
     "write the slowest-k + per-decile exemplar records as JSONL"},
    {"request-log-k", kRequestLog, kInt, "4",
     "slowest-k exemplar reservoir size (--request-log-out)"},
    {"request-log-window-ms", kRequestLog, kNum, "0",
     "slowest-k trailing window in virtual ms (0 = whole run)"},

    {"straggler-prob", kFaults, kNum, "0", "straggler probability"},
    {"straggler-alpha", kFaults, kNum, "1.5", "straggler pareto shape"},
    {"straggler-min", kFaults, kNum, "2", "minimum straggler slowdown"},
    {"spike-rate", kFaults, kNum, "0", "load spikes per second"},
    {"spike-ms", kFaults, kNum, "5", "load spike duration"},
    {"spike-factor", kFaults, kNum, "2", "slowdown during a spike"},
    {"fault-seed", kFaults | kEval, kInt, "2020", "failure-model seed"},
    {"deadline-ms", kFaults, kNum, "0",
     "per-item deadline budget (0 = off)"},

    {"workers", kServe, kInt, "4", "serving workers"},
    {"rate", kServe, kNum, "10000", "offered items/s"},
    {"sla-ms", kServe, kNum, "10", "SLA in milliseconds"},
    {"admission", kServe, kText, nullptr,
     "shed items whose wait blows the SLA"},
    {"admit-wait", kServe, kNum, "0.5", "sheddable wait as SLA fraction"},
    {"degrade-batch", kServe, kInt, "0",
     "degraded-mode batch cap (0 = off)"},
    {"backlog-factor", kServe, kNum, "2",
     "backlog (in max batches) triggering degraded mode"},
    {"low-priority", kServe, kNum, "0.2",
     "fraction of items droppable when degraded"},
    {"cluster-replicas", kServe, kInt, "1",
     "replicas backing the serving tier"},
    {"healthy-replicas", kServe, kInt, "0",
     "healthy replicas in the tier (0 = all)"},
    {"brownout", kServe, kText, nullptr,
     "enable the SLO-driven brownout ladder"},
    {"brownout-enter", kServe, kNum, "4",
     "short-window burn rate entering ladder level 1"},
    {"brownout-growth", kServe, kNum, "2",
     "entry-threshold growth per ladder level"},
    {"brownout-exit", kServe, kNum, "0.5",
     "de-escalate below this fraction of the entry threshold "
     "(hysteresis)"},
    {"brownout-dwell-ms", kServe, kNum, "20",
     "minimum time between ladder transitions"},
    {"brownout-truncate", kServe, kNum, "0.5",
     "candidate-set fraction kept at level >= 1"},
    {"brownout-skip-tables", kServe, kNum, "0.5",
     "SLS work fraction skipped at level 2"},

    {"nodes", kShard, kInt, "4", "shard nodes"},
    {"mtbf-ms", kShard, kNum, "0", "shard mean time between failures"},
    {"mttr-ms", kShard, kNum, "10", "shard mean time to repair"},
    {"timeout-ms", kShard, kNum, "0", "per-shard timeout (0 = none)"},
    {"retries", kShard, kInt, "2", "max retries per shard request"},
    {"hedge", kShard, kText, nullptr,
     "hedge slow shard requests to a replica"},
    {"hedge-ms", kShard, kNum, "0", "hedge delay (0 = auto p95)"},
    {"replicas", kShard, kInt, "1",
     "replicas per shard (>= 2 enables failover)"},
    {"router", kShard, kText, "primary-first",
     "replica router: primary-first|least-loaded|p2c"},
    {"breaker-errors", kShard, kInt, "3",
     "consecutive errors tripping a replica's breaker"},
    {"breaker-open-ms", kShard, kNum, "0.5",
     "breaker cooldown before half-open"},
    {"breaker-probe", kShard, kNum, "0.7",
     "half-open probe admission probability"},
    {"breaker-close-probes", kShard, kInt, "2",
     "probe successes that re-close a breaker"},
    {"warmup-ms", kShard, kNum, "2",
     "post-recovery warm-up window (cold caches)"},
    {"warmup-factor", kShard, kNum, "0",
     "post-recovery slowdown (0 = measured cold/steady)"},
    {"chaos-events", kShard, kInt, "0",
     "scripted chaos windows over the run"},
    {"chaos-ms", kShard, kNum, "5", "mean chaos window duration"},
    {"corrupt-rate", kShard, kNum, "0",
     "memory-corruption events per second (0 = off)"},
    {"corrupt-zipf", kShard, kNum, "1.05",
     "corruption row-targeting skew (0 = uniform)"},
    {"corrupt-multi-bit", kShard, kNum, "0.2",
     "fraction of corruptions flipping multiple bits"},
    {"corrupt-stuck-row", kShard, kNum, "0.1",
     "fraction of corruptions sticking a whole row at 1s"},
    {"corrupt-fc", kShard, kNum, "0",
     "fraction of corruptions hitting FC weights"},
    {"scrub-interval-ms", kShard, kNum, "0",
     "background checksum scrub full-sweep period (0 = off)"},
    {"integrity-sample", kShard | kEval, kNum, "0",
     "inline-verified fraction of lookup batches, (0, 1] (0 = off)"},
    {"integrity-guards", kShard, kText, nullptr,
     "NaN/inf/range + checksum output guards at the aggregation "
     "boundary"},
    {"integrity-canary-ms", kShard, kNum, "0",
     "canary-query period with golden outputs (0 = off)"},
    {"repair-rtt-us", kShard, kNum, "200",
     "parameter-store round trip per row re-fetch"},
    {"repair-gbps", kShard, kNum, "1",
     "parameter-store transfer bandwidth"},
    {"drain-density", kShard, kNum, "0",
     "corrupted-row density escalating a replica to drain + rehydrate "
     "(0 = off)"},
    {"fault-log-out", kShard, kText, "",
     "write every injected fault event as JSONL"},

    {"rows-cap", kEval, kInt, "4096",
     "embedding rows cap for the functional model"},
    {"corrupt-events", kEval, kInt, "0",
     "seeded bit flips injected into the real tables (needs "
     "--integrity-sample)"},
    {"dump-kernel-cache", kEval, kText, nullptr,
     "print the memoized kernel table after eval"},

    {"metrics", kReport | kExplain, kText, "",
     "metrics JSON artifact to render"},
    {"trace", kReport, kText, "", "trace JSON artifact to render"},
    {"timeseries", kReport, kText, "",
     "timeseries JSONL artifact to render"},
    {"request-log", kExplain, kText, "",
     "request-log JSONL artifact to attribute"},
    {"top", kExplain, kInt, "4",
     "slowest exemplar timelines to render"},
};

/** One subcommand: its option groups and its handler. */
struct Command
{
    const char *name;
    const char *summary;
    unsigned groups;
    int (*run)(const ArgParser &);
};

const Command kCommands[] = {
    {"time", "time one model on one machine at one batch size",
     kGlobal | kModel | kMachine | kSinks | kTime, cmdTime},
    {"colocate", "sweep co-located instances on a socket",
     kGlobal | kModel | kMachine | kColocate, cmdColocate},
    {"serve", "open-loop serving simulation with SLA accounting",
     kGlobal | kModel | kMachine | kSinks | kRequestLog | kFaults | kServe,
     cmdServe},
    {"shard", "sharded inference under faults, retries, hedges and "
              "replica failover",
     kGlobal | kModel | kMachine | kSinks | kRequestLog | kFaults | kShard,
     cmdShard},
    {"trace", "report the unique-ID fraction of a trace profile",
     kGlobal | kTrace, cmdTrace},
    {"eval", "execute the real tensor model and measure throughput",
     kGlobal | kModel | kSinks | kEval, cmdEval},
    {"report", "render a run report from saved artifacts",
     kGlobal | kReport, cmdReport},
    {"explain", "attribute the latency tail from a request log",
     kGlobal | kExplain, cmdExplain},
    {"zoo", "list the model zoo and machine fleet", kGlobal, cmdZoo},
};

void
printUsage()
{
    std::printf("usage: recperf <command> [options]\n\ncommands:\n");
    for (const Command &cmd : kCommands)
        std::printf("  %-10s %s\n", cmd.name, cmd.summary);
    std::printf("\nrun `recperf <command> --help` for the options a "
                "command takes\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> rest(argv + 1, argv + argc);
    const std::string name = rest.empty() ? "help" : rest.front();
    if (name == "help" || name == "--help") {
        printUsage();
        return 0;
    }
    rest.erase(rest.begin());
    const Command *cmd = nullptr;
    for (const Command &c : kCommands) {
        if (name == c.name)
            cmd = &c;
    }
    if (!cmd) {
        std::fprintf(stderr, "unknown command '%s'; try: recperf help\n",
                     name.c_str());
        return 2;
    }

    ArgParser args("recperf " + name, cmd->summary);
    for (const Knob &k : kKnobs) {
        if (!(k.groups & cmd->groups))
            continue;
        if (k.def)
            args.addOption(k.name, k.def, k.help, k.type);
        else
            args.addFlag(k.name, k.help);
    }
    std::string error;
    if (!args.parse(rest, &error)) {
        std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                     args.helpText().c_str());
        return 2;
    }
    if (!args.positional().empty()) {
        std::fprintf(stderr, "error: unexpected argument '%s'\n%s",
                     args.positional().front().c_str(),
                     args.helpText().c_str());
        return 2;
    }
    if (args.flag("help")) {
        std::printf("%s", args.helpText().c_str());
        return 0;
    }

    try {
        applyGlobalOptions(args);
        return cmd->run(args);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

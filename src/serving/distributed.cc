#include "serving/distributed.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/logging.hh"
#include "core/stats.hh"
#include "obs/trace.hh"
#include "sched/brownout.hh"
#include "serving/run_window.hh"

namespace recperf {

namespace {

/** Config for one shard node: only its share of the embedding tables. */
ModelConfig
shardConfig(const ModelConfig &base, uint32_t shard, uint32_t num_shards)
{
    ModelConfig cfg;
    cfg.name = base.name + strprintf("-shard%u", shard);
    cfg.modelClass = base.modelClass;
    cfg.denseFeatures = 0;
    cfg.bottomMlp = {};
    cfg.emb = base.emb;
    cfg.interaction = InteractionKind::Concat;
    cfg.topMlp = {1}; // placeholder head; only SLS time is extracted

    // Tables are dealt round-robin across shards so heterogeneous
    // per-table sizes spread evenly.
    cfg.emb.tableRows.clear();
    int64_t tables = 0;
    for (int64_t t = shard; t < base.emb.numTables;
         t += static_cast<int64_t>(num_shards)) {
        cfg.emb.tableRows.push_back(base.emb.rowsOf(t));
        ++tables;
    }
    cfg.emb.numTables = tables;
    cfg.validate();
    return cfg;
}

/** What the deadline leaves one shard attempt. */
struct Attempt
{
    double start;     ///< virtual issue time
    double remaining; ///< budget left at start (+inf without one)
    double timeout;   ///< policy timeout clamped to the budget
    bool hedgeFits;   ///< hedging is on and its delay fits the budget
};

/** How one shard attempt ended: retry (while attempts last), answered
 *  (the body filled the outcome), or abandoned (cancel the fan-out). */
enum class AttemptEnd { Retry, Resolved, Abandoned };

/**
 * The attempt loop both shard resolvers share. An attempt is abandoned
 * once a sibling shard abandoned the inference or the budget expired,
 * and fails fast when the budget cannot cover a fresh attempt's p50;
 * otherwise @p body runs it as
 * `AttemptEnd body(const Attempt &, double &waited, Outcome &)`. Every
 * retry pays the policy backoff; exhausting them fails the shard.
 */
template <typename Outcome, typename Ctx, typename Body>
Outcome
resolveAttempts(const RetryPolicy &retry, const HedgePolicy &hedge,
                double hedge_delay, double now, Ctx &ctx,
                RunResult *result, Body &&body)
{
    const Deadline &dl = ctx.deadline;
    double waited = 0.0;
    // Request-record breakdown carried across attempts; the bodies
    // stamp it without touching the elapsed arithmetic.
    Outcome out;
    for (int attempt = 0; attempt <= retry.maxRetries; ++attempt) {
        double start = now + waited;
        double remaining = dl.remaining(start);
        AttemptEnd end;
        if (ctx.abandoned || dl.expired(start)) {
            end = AttemptEnd::Abandoned;
        } else if (dl.enabled() && remaining < ctx.freshP50) {
            // Fail fast: not even a median-speed fresh attempt fits
            // in what is left of the budget, so don't issue one.
            ++result->deadlineFastFails;
            end = AttemptEnd::Abandoned;
        } else {
            // The effective timeout is the policy timeout clamped to
            // the remaining budget (+inf when neither bounds).
            double timeout = dl.clampTimeout(retry.timeoutSeconds, start);
            if (dl.enabled() && (retry.timeoutSeconds <= 0.0 ||
                                 timeout < retry.timeoutSeconds))
                out.deadlineClamped = true;
            end = body(Attempt{start, remaining, timeout,
                               hedge.enabled && hedge_delay < remaining},
                       waited, out);
        }
        if (end == AttemptEnd::Resolved) {
            out.ok = true;
            out.retryWaitSeconds = waited;
            return out;
        }
        if (end == AttemptEnd::Abandoned) {
            ctx.abandoned = true;
            out.cancelled = true;
            break;
        }
        if (attempt < retry.maxRetries) {
            ++result->retries;
            ++out.retries;
            waited += retry.backoffBefore(attempt);
        }
    }
    out.elapsed = waited;
    out.retryWaitSeconds = waited;
    return out;
}

} // namespace

double
RunResult::availability() const
{
    uint64_t total = completed + failed + deadlineExpired;
    return total > 0 ? static_cast<double>(completed) /
        static_cast<double>(total) : 0.0;
}

double
RunResult::goodput() const
{
    return duration > 0.0 ? static_cast<double>(completed) / duration
                          : 0.0;
}

void
RunResult::settle(const obs::RequestRecord &rec)
{
    using enum obs::RequestOutcome;
    switch (rec.outcome) {
      case Served:
        latency.add(rec.latency);
        ++completed;
        break;
      case Cancelled: ++deadlineExpired; break;
      case Failed: ++failed; break;
      default:
        RP_PANIC("the shard path never settles a %s inference",
                 obs::requestOutcomeName(rec.outcome));
    }
}

ShardedInference::ShardedInference(const MachineSpec &machine,
                                   const ModelConfig &config,
                                   uint32_t num_nodes,
                                   const NetworkConfig &network,
                                   const TimerOptions &options)
    : machine_(machine), config_(config), network_(network),
      options_(options)
{
    RP_ASSERT(num_nodes >= 1, "need at least one shard node");
    config_.validate();
    RP_ASSERT(config_.emb.numTables >= num_nodes,
              "%s: cannot spread %lld tables over %u nodes",
              config_.name.c_str(),
              static_cast<long long>(config_.emb.numTables), num_nodes);

    for (uint32_t s = 0; s < num_nodes; ++s) {
        TimerOptions opts = options_;
        opts.seed = options_.seed + 0x4000ull * (s + 1);
        shard_timers_.push_back(std::make_unique<ModelTimer>(
            machine_, shardConfig(config_, s, num_nodes), opts));
    }

    // The aggregator runs everything except the embedding gathers; it
    // is timed with the full model and its SLS share subtracted.
    agg_timer_ = std::make_unique<ModelTimer>(machine_, config_, options_);
}

uint32_t
ShardedInference::numNodes() const
{
    return static_cast<uint32_t>(shard_timers_.size());
}

void
RunResult::exportTo(obs::MetricsRegistry &registry) const
{
    registry.counter("sharded.inferences.completed").add(completed);
    registry.counter("sharded.inferences.failed").add(failed);
    registry.counter("sharded.hedges.issued").add(hedgesIssued);
    registry.counter("sharded.hedges.won").add(hedgeWins);
    registry.counter("sharded.retries").add(retries);
    registry.counter("sharded.timeouts").add(timeouts);
    registry.counter("sharded.shard_down_encounters")
        .add(shardDownEncounters);
    registry.counter("sharded.failovers").add(failovers);
    registry.counter("sharded.breaker.rejects").add(breakerRejects);
    registry.counter("sharded.breaker.opens").add(breakerOpens);
    registry.counter("sharded.breaker.closes").add(breakerCloses);
    registry.counter("sharded.breaker.probes_admitted")
        .add(probesAdmitted);
    // Deadline counters appear only when a budget was active, so
    // legacy runs export byte-identical metric sets.
    if (deadlineExpired)
        registry.counter("sharded.deadline.expired").add(deadlineExpired);
    if (deadlineFastFails)
        registry.counter("sharded.deadline.fast_fails")
            .add(deadlineFastFails);
    if (replicaSkips)
        registry.counter("sharded.deadline.replica_skips")
            .add(replicaSkips);
    registry.gauge("sharded.duration_seconds").set(duration);
    registry.gauge("sharded.availability").set(availability());
    registry.gauge("sharded.goodput_per_s").set(goodput());
    registry.gauge("sharded.wasted_seconds").set(wastedSeconds);
    registry.gauge("sharded.hedge_extra_seconds").set(hedgeExtraSeconds);
    registry.gauge("sharded.warmup_penalty_seconds")
        .set(warmupPenaltySeconds);
    registry.gauge("sharded.mean.slowest_shard_seconds")
        .set(slowestShardSeconds);
    registry.gauge("sharded.mean.network_seconds").set(networkSeconds);
    registry.gauge("sharded.mean.aggregator_seconds")
        .set(aggregatorSeconds);
    registry.gauge("sharded.network_bytes_per_inference")
        .set(networkBytes);
    obs::LatencyHistogram hist =
        registry.histogram("sharded.inference_latency_seconds");
    for (double s : latency.samples())
        hist.record(s);
    // Integrity counters appear only when an SDC controller ran, so
    // legacy runs export byte-identical metric sets.
    if (sdc.active) {
        registry.counter("integrity.injected.rows").add(sdc.injectedRows);
        registry.counter("integrity.injected.fc").add(sdc.injectedFc);
        registry.counter("integrity.detected.total").add(sdc.detected);
        registry.counter("integrity.detected.scrub")
            .add(sdc.detectedScrub);
        registry.counter("integrity.detected.inline")
            .add(sdc.detectedInline);
        registry.counter("integrity.detected.guard")
            .add(sdc.detectedGuard);
        registry.counter("integrity.detected.canary")
            .add(sdc.detectedCanary);
        registry.counter("integrity.cleared.rows").add(sdc.clearedRows);
        registry.counter("integrity.quarantined.rows")
            .add(sdc.quarantinedRows);
        registry.counter("integrity.repairs.completed").add(sdc.repairs);
        registry.counter("integrity.rehydrates").add(sdc.rehydrates);
        registry.counter("integrity.rows_rehydrated")
            .add(sdc.rowsRehydrated);
        registry.counter("integrity.responses.corrupted_served")
            .add(sdc.corruptedServed);
        registry.counter("integrity.responses.degraded")
            .add(sdc.degradedServed);
        registry.counter("integrity.canary.runs").add(sdc.canaryRuns);
        registry.counter("integrity.scrub.sweeps").add(sdc.scrubSweeps);
        registry.gauge("integrity.verify_seconds")
            .set(sdc.verifySeconds);
        registry.gauge("integrity.repair_seconds")
            .set(sdc.repairSeconds);
        registry.gauge("integrity.mean_quality")
            .set(completed > 0
                     ? sdc.qualitySum / static_cast<double>(completed)
                     : 1.0);
        obs::LatencyHistogram det =
            registry.histogram("integrity.detection_latency_seconds");
        for (double s : sdc.detectionLatency.samples())
            det.record(s);
    }
}

std::string
RunOptions::validate() const
{
    if (measureIters < 1)
        return strprintf("need at least one measured iteration (got %d)",
                         measureIters);
    if (faults.shardMtbfSeconds > 0.0 && !(faults.shardMttrSeconds > 0.0))
        return strprintf("MTTR must be positive when an MTBF enables "
                         "shard failures (got %g s)",
                         faults.shardMttrSeconds);
    for (const std::string &err :
         {replicas ? replicas->validate() : std::string(),
          validateRetryPolicy(retry), validateHedgePolicy(hedge, retry),
          faults.validate(), validateDeadlineSeconds(deadlineSeconds),
          sdc.validate()}) {
        if (!err.empty())
            return err;
    }
    return "";
}

RunResult
ShardedInference::run(const RunOptions &options)
{
    const bool replicated = options.replicas.has_value();
    std::string invalid = options.validate();
    RP_ASSERT(invalid.empty(), "%s", invalid.c_str());

    if (options.backend) {
        for (std::unique_ptr<ModelTimer> &timer : shard_timers_)
            timer->setBackend(*options.backend);
        agg_timer_->setBackend(*options.backend);
    }

    FaultInjector injector(
        options.faults,
        numNodes() * (replicated ? options.replicas->replicas : 1));
    injector.setLog(options.faultLog);
    RunResult result;

    // The SDC controller engages when corruption events are injected
    // or any defense mechanism is on; otherwise no controller exists
    // and the loop below is byte-identical to a legacy run.
    std::unique_ptr<SdcController> sdc;
    if (options.faults.corruption.enabled() ||
        options.sdc.anyDefense()) {
        CorruptionTopology topo;
        topo.shards = numNodes();
        topo.replicas = replicated ? options.replicas->replicas : 1;
        topo.embDim = config_.emb.embDim;
        for (const std::unique_ptr<ModelTimer> &timer : shard_timers_)
            topo.tableRows.push_back(timer->config().emb.tableRows);
        // Aggregator FC state, modeled as one row per output neuron
        // carrying the stack's average per-neuron parameter load.
        int64_t neurons = 0;
        for (int64_t w : config_.bottomMlp)
            neurons += w;
        for (int64_t w : config_.topMlp)
            neurons += w;
        if (neurons > 0) {
            topo.fcRows = neurons;
            topo.fcRowBits = config_.fcParamCount() * 32 / neurons;
        }
        if (options.faults.corruption.enabled())
            injector.setCorruptionTopology(topo);
        SdcOptions sdc_opts = options.sdc;
        if (sdc_opts.quarantineQuality <= 0.0)
            sdc_opts.quarantineQuality = BrownoutOptions{}.qualityScore(
                BrownoutLevel::StaleEmbeddings);
        sdc = std::make_unique<SdcController>(
            sdc_opts, topo, &injector, options.faults.seed,
            options_.batch, config_.emb.lookupsPerTable);
    }

    // Warmup doubles as calibration of the auto hedge delay (p95 of
    // clean shard service times) and, with the replica layer, of the
    // post-recovery warm-up factor: the very first run of each shard
    // timer touches cold simulated caches, so cold-iteration /
    // steady-state SLS time *is* the embedding-cache refill cost a
    // revived replica pays.
    std::vector<double> cold;
    std::vector<double> calib;
    int warmup = std::max(options.warmupIters, replicated ? 2 : 1);
    for (int i = 0; i < warmup; ++i) {
        for (auto &timer : shard_timers_) {
            double s = timer->run().secondsByKind(OpKind::SLS);
            (replicated && i == 0 ? cold : calib).push_back(s);
        }
        agg_timer_->run();
    }
    double hedge_delay = options.hedge.delaySeconds > 0.0
        ? options.hedge.delaySeconds : percentile(calib, 95.0);
    // A fresh attempt's p50, from the same calibration: the fail-fast
    // floor below which a deadline budget cannot buy a retry.
    double fresh_p50 = percentile(calib, 50.0);

    std::vector<ReplicaSet> sets;
    if (replicated) {
        double warm_factor = options.replicas->warmupFactor;
        if (warm_factor <= 0.0) {
            double cold_mean = 0.0;
            for (double s : cold)
                cold_mean += s;
            cold_mean /= static_cast<double>(cold.size());
            double steady = percentile(calib, 50.0);
            warm_factor = steady > 0.0
                ? std::clamp(cold_mean / steady, 1.0, 100.0) : 1.0;
        }
        result.warmupFactorUsed = warm_factor;
        sets.reserve(numNodes());
        for (uint32_t s = 0; s < numNodes(); ++s)
            sets.emplace_back(s, *options.replicas, warm_factor);
    }

    if (sdc)
        sdc->calibrate(fresh_p50, machine_.dram.streamGBps());

    // Measurement starts here: drop warm-up/calibration telemetry and
    // anchor the time-series cadence at virtual t = 0.
    RunWindow window("aggregator", "shard", numNodes());
    obs::Tracer *tracer = window.tracer();
    if (sdc && tracer)
        sdc->setTracer(tracer, static_cast<int>(numNodes()) + 1);

    double now = 0.0;
    double sum_slowest = 0.0;
    double sum_agg = 0.0;
    for (int i = 0; i < options.measureIters; ++i) {
        // Advance the corruption/scrub/repair/canary machinery to the
        // inference's issue time; canary executions tax the clock.
        if (sdc)
            now += sdc->beginInference(now);
        double issue = now;
        double slowest = 0.0;
        double elapsed_max = 0.0;
        bool ok = true;
        bool cancelled = false;
        // Request-record accumulators: the critical (slowest-ok)
        // shard's breakdown defines the latency phases; retry/hedge/
        // breaker counts sum over every shard so they reconcile
        // against the run's exported counters.
        ShardOutcome crit;
        int32_t crit_shard = -1;
        double crit_base_clean = 0.0;
        double crit_verify = 0.0;
        double min_clean = 0.0;
        uint64_t rl_retries = 0, rl_hedges = 0, rl_hedge_wins = 0;
        uint64_t rl_breaker = 0;
        bool rl_clamped = false;
        double rl_offload = 0.0;
        // Each inference carries its own budget (anchored at issue
        // time); once any shard gives up on the deadline, the
        // remaining fan-out stops.
        DeadlineCtx ctx{Deadline{now, options.deadlineSeconds},
                        fresh_p50};
        for (uint32_t s = 0; s < numNodes(); ++s) {
            if (ctx.abandoned) {
                // Abandoned mid-fan-out: the remaining shards are
                // never queried.
                cancelled = true;
                break;
            }
            ModelTiming shard_timing = shard_timers_[s]->run();
            double base = shard_timing.secondsByKind(OpKind::SLS);
            // The fault-free shard time, before the scrub slowdown:
            // the request record charges the difference to the Scrub
            // phase instead of folding it into Service.
            double base_clean = base;
            if (sdc) {
                // Checksum re-reads of the background scrubber steal
                // table bandwidth from every gather.
                base *= sdc->serviceSlowdown();
            }
            ShardOutcome out = replicated
                ? resolveReplicated(injector, sets[s], options.retry,
                                    options.hedge, hedge_delay, s, base,
                                    now, options.chaos, ctx, sdc.get(),
                                    &result)
                : resolveShard(injector, options.retry, options.hedge,
                               hedge_delay, s, base, now, ctx,
                               sdc.get(), &result);
            double verify = 0.0;
            if (out.ok && sdc) {
                // Model the rows this batch touched on the serving
                // replica; inline sampled verification adds its read
                // cost to the shard's service time.
                verify = sdc->onShardLookup(s, out.replica, now);
                out.elapsed += verify;
            }
            if (tracer) {
                tracer->span("shard", strprintf("sls s%u", s), now,
                             now + out.elapsed, 1 + s,
                             {{"ok", out.ok ? "true" : "false"},
                              {"base_us",
                               strprintf("%.3f", base * 1e6)}});
            }
            rl_retries += out.retries;
            rl_hedges += out.hedges;
            rl_hedge_wins += out.hedgeWins;
            rl_breaker += out.breakerRejects;
            rl_clamped = rl_clamped || out.deadlineClamped;
            for (const OpTiming &op : shard_timing.ops)
                rl_offload += static_cast<double>(op.transferBytes);
            if (out.ok) {
                if (crit_shard < 0 || base_clean < min_clean)
                    min_clean = base_clean;
                if (crit_shard < 0 || out.elapsed > crit.elapsed) {
                    crit = out;
                    crit_shard = static_cast<int32_t>(s);
                    crit_base_clean = base_clean;
                    crit_verify = verify;
                }
            }
            elapsed_max = std::max(elapsed_max, out.elapsed);
            if (out.cancelled) {
                cancelled = true;
                break;
            }
            if (out.ok)
                slowest = std::max(slowest, out.elapsed);
            else
                ok = false;
        }

        obs::RequestRecord rec;
        rec.id = static_cast<uint64_t>(i);
        rec.arrival = issue;
        rec.start = issue;
        auto sat16 = [](uint64_t n) {
            return static_cast<uint16_t>(std::min<uint64_t>(n, UINT16_MAX));
        };
        rec.retries = sat16(rl_retries);
        rec.hedges = sat16(rl_hedges);
        rec.hedgeWins = sat16(rl_hedge_wins);
        rec.breakerRejects = static_cast<uint32_t>(
            std::min<uint64_t>(rl_breaker, UINT32_MAX));
        rec.deadlineClamped = rl_clamped;
        rec.hedgeWon = crit.hedgeWon;
        rec.criticalShard = crit_shard;
        rec.replica = (replicated && crit_shard >= 0)
            ? static_cast<int32_t>(crit.replica) : -1;
        rec.healthEwma = static_cast<float>(crit.healthEwma);
        rec.admissionEstimate = static_cast<float>(fresh_p50);
        rec.batchItems = static_cast<uint32_t>(options_.batch);
        rec.offloadBytes = rl_offload;
        auto ph = [&rec](obs::RequestPhase p) -> double & {
            return rec.phase[static_cast<size_t>(p)];
        };
        std::optional<double> instant_at; // default: rec.finish
        if (cancelled) {
            // Deadline-shed: the aggregator never runs, the partial
            // shard work is wasted, and virtual time advances only by
            // what the abandoned attempt actually consumed (capped at
            // the budget — the cancellation point).
            if (sdc)
                sdc->dropInference();
            double consumed = ctx.deadline.enabled()
                ? std::min(elapsed_max, ctx.deadline.budgetSeconds)
                : elapsed_max;
            result.wastedSeconds += elapsed_max;
            now += consumed;
            rec.outcome = obs::RequestOutcome::Cancelled;
            rec.latency = consumed;
            rec.slaViolated = true;
            // The abandoned fan-out's time is all spent waiting on
            // shards; blame it on the retry lane.
            ph(obs::RequestPhase::Retry) = consumed;
        } else {
            ModelTiming agg = agg_timer_->run();
            double agg_seconds =
                agg.totalSeconds() - agg.secondsByKind(OpKind::SLS);
            double network = networkSeconds(nullptr);
            if (ok) {
                double total = slowest + network + agg_seconds;
                double guard_extra = 0.0;
                if (sdc) {
                    // The aggregation boundary: output guards and
                    // canary bookkeeping decide whether this response
                    // escapes corrupted, serves degraded, or pays
                    // guard time.
                    SdcController::Boundary boundary =
                        sdc->endInference(now + total);
                    guard_extra = boundary.extraSeconds;
                    total += boundary.extraSeconds;
                }
                if (tracer) {
                    tracer->span("shard", "network", now + slowest,
                                 now + slowest + network, 0);
                    tracer->span("shard", "aggregate",
                                 now + slowest + network, now + total, 0);
                }
                sum_slowest += slowest;
                sum_agg += agg_seconds;
                now += total;
                rec.latency = total;
                // Decompose the critical shard's elapsed time:
                //  - Service: the fault-free minimum shard time (the
                //    floor every fan-out pays);
                //  - ShardStraggler: everything the slowest shard adds
                //    beyond that floor (imbalance + chaos slowdown);
                //  - Scrub: scrubber slowdown + inline verification +
                //    the aggregation boundary's guard time;
                //  - Retry/Hedge/Warmup: the critical shard's waits.
                ph(obs::RequestPhase::Service) = min_clean;
                // Peeling warm-up and hedge delay off the winner's time
                // can round a clean winner's excess to -1e-21; a phase
                // is a duration, so it floors at zero.
                ph(obs::RequestPhase::ShardStraggler) = std::max(
                    0.0,
                    (crit_base_clean - min_clean) + crit.stragglerSeconds);
                ph(obs::RequestPhase::Retry) = crit.retryWaitSeconds;
                ph(obs::RequestPhase::Hedge) = crit.hedgeWaitSeconds;
                ph(obs::RequestPhase::Warmup) = crit.warmupSeconds;
                ph(obs::RequestPhase::Scrub) =
                    (crit.serviceSeconds - crit_base_clean) +
                    crit_verify + guard_extra;
                ph(obs::RequestPhase::Network) = network;
                ph(obs::RequestPhase::Aggregate) = agg_seconds;
            } else {
                // The aggregator abandons the inference once the
                // slowest shard exhausts its retries; no result is
                // produced. The failure instant marks that moment,
                // before the network hop.
                if (sdc)
                    sdc->dropInference();
                result.wastedSeconds += agg_seconds;
                instant_at = now + elapsed_max;
                now += elapsed_max + network;
                rec.outcome = obs::RequestOutcome::Failed;
                rec.latency = elapsed_max + network;
                rec.slaViolated = true;
                // Retries were exhausted: the whole shard wait is the
                // retry lane's fault; the network hop still happened.
                ph(obs::RequestPhase::Retry) = elapsed_max;
                ph(obs::RequestPhase::Network) = network;
            }
        }
        rec.finish = now;
        window.settle(rec, result, 0, instant_at);
        // `now` only moves forward, so the counter tracks carry
        // monotone virtual timestamps.
        window.tick(now);
    }
    result.duration = now;

    if (sdc) {
        // Final scrub period + repair-queue drain: every resident
        // corruption resolves within its detection bound.
        sdc->finish(now);
        result.sdc = sdc->stats();
    }

    for (const ReplicaSet &set : sets) {
        result.breakerOpens += set.breakerOpens();
        result.breakerCloses += set.breakerCloses();
        result.probesAdmitted += set.probesAdmitted();
    }

    if (result.completed > 0) {
        result.slowestShardSeconds =
            sum_slowest / static_cast<double>(result.completed);
        result.aggregatorSeconds =
            sum_agg / static_cast<double>(result.completed);
    }
    // Pooled vectors: one embDim-vector per (sample, table) crosses the
    // network; with one node everything is local.
    result.networkSeconds = networkSeconds(&result.networkBytes);
    result.totalSeconds = result.slowestShardSeconds +
        result.networkSeconds + result.aggregatorSeconds;
    return result;
}

double
ShardedInference::shardNetworkBytes(uint32_t shard) const
{
    if (numNodes() <= 1)
        return 0.0;
    return static_cast<double>(options_.batch) *
        static_cast<double>(
            shard_timers_.at(shard)->config().emb.numTables) *
        static_cast<double>(config_.emb.embDim) * 4.0;
}

double
ShardedInference::networkSeconds(double *bytes_out) const
{
    double bytes = 0.0;
    double seconds = 0.0;
    if (numNodes() > 1) {
        bytes = static_cast<double>(options_.batch) *
            static_cast<double>(config_.emb.numTables) *
            static_cast<double>(config_.emb.embDim) * 4.0;
        seconds = kNetworkRttUs * 1e-6 +
            bytes / (network_.bandwidthGBps * 1e9);
    }
    if (bytes_out)
        *bytes_out = bytes;
    return seconds;
}

ShardedInference::ShardOutcome
ShardedInference::resolveShard(FaultInjector &injector,
                               const RetryPolicy &retry,
                               const HedgePolicy &hedge,
                               double hedge_delay, uint32_t shard,
                               double base_seconds, double now,
                               DeadlineCtx &ctx,
                               const SdcController *sdc,
                               RunResult *result)
{
    auto body = [&](const Attempt &a, double &waited, ShardOutcome &out) {
        // A replica mid-rehydrate is out of rotation: the single-copy
        // path sees it exactly like a transient down window.
        bool drained =
            sdc != nullptr && sdc->replicaDrained(shard, 0, a.start);
        if (drained || !injector.shardUp(shard, a.start)) {
            ++result->shardDownEncounters;
            if (a.hedgeFits) {
                // The hedge goes to a replica node, so it rescues the
                // request even while the primary shard is down.
                double hedged = base_seconds *
                    injector.serviceMultiplier(a.start + hedge_delay);
                ++result->hedgesIssued;
                ++result->hedgeWins;
                result->hedgeExtraSeconds += hedged;
                result->hedgeExtraBytes += shardNetworkBytes(shard);
                out.elapsed = waited + hedge_delay + hedged;
                out.hedgeWaitSeconds = hedge_delay;
                out.serviceSeconds = base_seconds;
                out.stragglerSeconds = hedged - base_seconds;
                ++out.hedges;
                ++out.hedgeWins;
                out.hedgeWon = true;
                return AttemptEnd::Resolved;
            }
            result->wastedSeconds += kFailFastSeconds;
            waited += kFailFastSeconds;
            return AttemptEnd::Retry;
        }
        double service = base_seconds * injector.serviceMultiplier(a.start);
        bool hedge_won = false;
        if (a.hedgeFits && service > hedge_delay) {
            double hedged = hedge_delay + base_seconds *
                injector.serviceMultiplier(a.start + hedge_delay);
            ++result->hedgesIssued;
            result->hedgeExtraSeconds += hedged - hedge_delay;
            result->hedgeExtraBytes += shardNetworkBytes(shard);
            ++out.hedges;
            if (hedged < service) {
                ++result->hedgeWins;
                ++out.hedgeWins;
                hedge_won = true;
                service = hedged;
            }
        }
        if (service > a.timeout) {
            ++result->timeouts;
            result->wastedSeconds += a.timeout;
            waited += a.timeout;
            return AttemptEnd::Retry;
        }
        out.elapsed = waited + service;
        out.serviceSeconds = base_seconds;
        if (hedge_won) {
            out.hedgeWaitSeconds = hedge_delay;
            out.stragglerSeconds = service - hedge_delay - base_seconds;
            out.hedgeWon = true;
        } else {
            out.stragglerSeconds = service - base_seconds;
        }
        return AttemptEnd::Resolved;
    };
    return resolveAttempts<ShardOutcome>(retry, hedge, hedge_delay, now,
                                         ctx, result, body);
}

ShardedInference::ShardOutcome
ShardedInference::resolveReplicated(FaultInjector &injector,
                                    ReplicaSet &set,
                                    const RetryPolicy &retry,
                                    const HedgePolicy &hedge,
                                    double hedge_delay, uint32_t shard,
                                    double base_seconds, double now,
                                    const ChaosSchedule *chaos,
                                    DeadlineCtx &ctx,
                                    const SdcController *sdc,
                                    RunResult *result)
{
    const Deadline &dl = ctx.deadline;
    // Replica r of shard s runs failure process s*R + r; scripted chaos
    // windows override the renewal process, and a replica drained for
    // SDC rehydration counts as down so requests fail over. Every
    // query also tells the ReplicaSet what it saw, so down -> up edges
    // start the warm-up.
    auto replica_up = [&](uint32_t replica, double t) {
        bool up = injector.shardUp(shard * set.size() + replica, t);
        if (up && sdc && sdc->replicaDrained(shard, replica, t))
            up = false;
        if (up && chaos && chaos->forcedDown(shard, replica, t))
            up = false;
        return set.observeUp(replica, up, t);
    };
    auto multiplier = [&](double t) {
        double m = injector.serviceMultiplier(t);
        return chaos ? m * chaos->serviceFactor(t) : m;
    };

    int prev_error_replica = -1;
    auto body = [&](const Attempt &a, double &waited, ShardOutcome &out) {
        ReplicaSet::Pick pick = set.route(a.start);
        if (dl.enabled() && pick.replica >= 0) {
            // Skip replicas whose learned EWMA latency already exceeds
            // the remaining budget: prefer the router's alternate when
            // it fits, otherwise abandon rather than send a doomed
            // request.
            const HealthTracker &primary_health =
                set.health(static_cast<uint32_t>(pick.replica));
            if (primary_health.successes() > 0 &&
                primary_health.ewmaSeconds() > a.remaining) {
                bool alternate_fits = false;
                if (pick.alternate >= 0) {
                    const HealthTracker &alt_health = set.health(
                        static_cast<uint32_t>(pick.alternate));
                    alternate_fits = alt_health.successes() == 0 ||
                        alt_health.ewmaSeconds() <= a.remaining;
                }
                ++result->replicaSkips;
                if (!alternate_fits)
                    return AttemptEnd::Abandoned;
                std::swap(pick.replica, pick.alternate);
            }
        }
        if (pick.replica < 0) {
            // Every breaker rejected: nothing to send to. Pay the
            // detection latency and let the backoff ride until a
            // breaker half-opens.
            ++result->breakerRejects;
            ++out.breakerRejects;
            result->wastedSeconds += kFailFastSeconds;
            waited += kFailFastSeconds;
            return AttemptEnd::Retry;
        }
        auto primary = static_cast<uint32_t>(pick.replica);
        if (!replica_up(primary, a.start)) {
            ++result->shardDownEncounters;
            set.recordError(primary, a.start);
            prev_error_replica = pick.replica;
            // A down primary is rescued by hedging to the router's
            // second-best replica — if one is admitted and alive.
            if (a.hedgeFits && pick.alternate >= 0) {
                auto alt = static_cast<uint32_t>(pick.alternate);
                double t_hedge = a.start + hedge_delay;
                if (replica_up(alt, t_hedge)) {
                    double warm = set.warmupMultiplier(alt, t_hedge);
                    double hedged =
                        base_seconds * multiplier(t_hedge) * warm;
                    ++result->hedgesIssued;
                    ++result->hedgeWins;
                    ++result->failovers;
                    result->hedgeExtraSeconds += hedged;
                    result->hedgeExtraBytes += shardNetworkBytes(shard);
                    result->warmupPenaltySeconds += hedged - hedged / warm;
                    set.recordSuccess(alt, hedged, t_hedge);
                    out.elapsed = waited + hedge_delay + hedged;
                    out.replica = alt;
                    out.hedgeWaitSeconds = hedge_delay;
                    out.serviceSeconds = base_seconds;
                    out.warmupSeconds = hedged - hedged / warm;
                    out.stragglerSeconds = hedged / warm - base_seconds;
                    ++out.hedges;
                    ++out.hedgeWins;
                    out.hedgeWon = true;
                    out.healthEwma = set.health(alt).ewmaSeconds();
                    return AttemptEnd::Resolved;
                }
                ++result->shardDownEncounters;
                set.recordError(alt, t_hedge);
            }
            result->wastedSeconds += kFailFastSeconds;
            waited += kFailFastSeconds;
            return AttemptEnd::Retry;
        }
        double warm = set.warmupMultiplier(primary, a.start);
        double service = base_seconds * multiplier(a.start) * warm;
        double primary_service = service;
        uint32_t winner = primary;
        double win_warm = warm;
        double win_body = service;
        if (a.hedgeFits && service > hedge_delay && pick.alternate >= 0) {
            auto alt = static_cast<uint32_t>(pick.alternate);
            double t_hedge = a.start + hedge_delay;
            if (replica_up(alt, t_hedge)) {
                double warm_alt = set.warmupMultiplier(alt, t_hedge);
                double alt_service =
                    base_seconds * multiplier(t_hedge) * warm_alt;
                double hedged = hedge_delay + alt_service;
                ++result->hedgesIssued;
                result->hedgeExtraSeconds += alt_service;
                result->hedgeExtraBytes += shardNetworkBytes(shard);
                ++out.hedges;
                set.recordSuccess(alt, alt_service, t_hedge);
                if (hedged < service) {
                    ++result->hedgeWins;
                    ++out.hedgeWins;
                    result->warmupPenaltySeconds +=
                        alt_service - alt_service / warm_alt;
                    winner = alt;
                    service = hedged;
                    win_warm = warm_alt;
                    win_body = alt_service;
                }
            } else {
                ++result->shardDownEncounters;
                set.recordError(alt, t_hedge);
            }
        }
        if (service > a.timeout) {
            ++result->timeouts;
            set.recordError(primary, a.start + a.timeout);
            prev_error_replica = static_cast<int>(primary);
            result->wastedSeconds += a.timeout;
            waited += a.timeout;
            return AttemptEnd::Retry;
        }
        // The primary did answer (even when the hedge beat it), so its
        // EWMA learns its own latency.
        set.recordSuccess(primary, primary_service, a.start);
        if (winner == primary) {
            result->warmupPenaltySeconds +=
                primary_service - primary_service / warm;
        }
        if (prev_error_replica >= 0 &&
            winner != static_cast<uint32_t>(prev_error_replica))
            ++result->failovers;
        out.elapsed = waited + service;
        out.replica = winner;
        out.serviceSeconds = base_seconds;
        // win_body = base * mult * warm of the winning attempt; peel
        // warm-up off the top, then the fault excess, leaving the clean
        // base.
        out.warmupSeconds = win_body - win_body / win_warm;
        out.stragglerSeconds = win_body / win_warm - base_seconds;
        if (winner != primary) {
            out.hedgeWaitSeconds = hedge_delay;
            out.hedgeWon = true;
        }
        out.healthEwma = set.health(winner).ewmaSeconds();
        return AttemptEnd::Resolved;
    };
    return resolveAttempts<ShardOutcome>(retry, hedge, hedge_delay, now,
                                         ctx, result, body);
}

} // namespace recperf

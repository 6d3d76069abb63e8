/**
 * @file
 * Op-level tracer emitting Chrome trace-event JSON (open the file in
 * Perfetto or chrome://tracing).
 *
 * Two time domains share one event stream:
 *
 *  - *virtual time*: the serving/sharding simulations advance a
 *    deterministic simulated clock; spans carry those timestamps
 *    directly, so a trace of `recperf serve` is bit-identical across
 *    runs and thread counts. Virtual lanes are small tids chosen by
 *    the emitter (queue, workers, shards, ...).
 *  - *wall clock*: the real execution engine (tensor ops, thread-pool
 *    workers) records RAII scopes against a steady-clock epoch taken
 *    when tracing is enabled. Wall lanes are per-OS-thread tids in a
 *    distinct range (>= kWallTidBase).
 *
 * Tracing is off by default. Every emission site first checks one
 * relaxed atomic flag, so the disabled path costs a load and a
 * predictable branch — the "near-zero overhead" contract DESIGN.md §11
 * documents and obs_test enforces.
 *
 * Events are buffered per thread (mutex only on buffer registration)
 * and merged on snapshot()/writeFile(), sorted by timestamp with a
 * per-buffer sequence number breaking ties, so single-threaded virtual
 * traces serialize deterministically.
 */

#ifndef RECPERF_OBS_TRACE_HH
#define RECPERF_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace recperf {
namespace obs {

/** One trace event (Chrome trace-event "X", "i", or "C" phase). */
struct TraceEvent
{
    std::string name;
    const char *cat = "";   ///< static category string
    char ph = 'X';          ///< 'X' complete span, 'i' instant, 'C' counter
    double tsUs = 0.0;      ///< microseconds since trace epoch
    double durUs = 0.0;     ///< span duration ('X' only)
    uint32_t tid = 0;       ///< lane
    uint64_t seq = 0;       ///< per-buffer emission order (tie-break)
    /** Small key/value payload; values are emitted as JSON strings
     *  unless they parse as a plain number. */
    std::vector<std::pair<std::string, std::string>> args;
};

/** Process-wide tracer. */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    static Tracer &global();

    /**
     * Turn tracing on or off. Enabling (re)sets the wall-clock epoch
     * and installs the thread-pool chunk hook (removed again on
     * disable); previously buffered events are kept until clear().
     */
    void setEnabled(bool on);

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** First wall tid; virtual lanes must stay below this. */
    static constexpr uint32_t kWallTidBase = 1000;

    /**
     * Complete span in *virtual* time: [t0, t1] in simulated seconds on
     * lane @p tid. No-op when disabled.
     */
    void span(const char *cat, std::string name, double t0_seconds,
              double t1_seconds, uint32_t tid,
              std::vector<std::pair<std::string, std::string>> args = {});

    /** Instant event in virtual time. No-op when disabled. */
    void instant(const char *cat, std::string name, double t_seconds,
                 uint32_t tid,
                 std::vector<std::pair<std::string, std::string>> args = {});

    /** Counter sample in virtual time (renders as a track). */
    void counter(const char *cat, std::string name, double t_seconds,
                 uint32_t tid, double value);

    /**
     * Name a lane ("thread_name" metadata in the JSON). Idempotent;
     * works whether or not tracing is currently enabled; clear()
     * forgets the name.
     */
    void nameLane(uint32_t tid, const std::string &name);

    /** Seconds since the wall epoch (set by setEnabled(true)). */
    double wallSeconds() const;

    /**
     * Wall-clock span from explicit steady-clock endpoints on the
     * calling thread's wall lane (used by the pool chunk hook, which
     * timestamps outside the tracer). No-op when disabled.
     */
    void wallSpanAt(const char *cat, std::string name,
                    std::chrono::steady_clock::time_point t0,
                    std::chrono::steady_clock::time_point t1);

    /** Lane for the calling OS thread (>= kWallTidBase, stable). */
    uint32_t wallTid();

    /**
     * RAII wall-clock span. Construction with tracing disabled costs
     * one relaxed atomic load.
     */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *cat, const char *name)
        {
            if (tracer.enabled()) {
                tracer_ = &tracer;
                cat_ = cat;
                name_ = name;
                t0_ = tracer.wallSeconds();
            }
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->wallSpan(cat_, name_, t0_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_ = nullptr;
        const char *cat_ = "";
        const char *name_ = "";
        double t0_ = 0.0;
    };

    /** Merged, deterministically ordered view of all buffered events. */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Drop all buffered events and lane names, so the next run exports
     * only the lanes it names itself.
     */
    void clear();

    /** Chrome trace-event JSON ({"traceEvents": [...]}). */
    std::string toJson() const;

    /** Write toJson() to @p path; false (with a warning) on failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct Buffer
    {
        std::vector<TraceEvent> events;
        uint64_t next_seq = 0;
    };

    Buffer *buffer();
    void emit(TraceEvent ev);
    void wallSpan(const char *cat, const char *name, double t0);

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point wall_epoch_{};
    mutable std::mutex mu_;
    std::vector<std::shared_ptr<Buffer>> buffers_;
    std::map<uint32_t, std::string> lane_names_;
    uint32_t next_wall_tid_ = kWallTidBase;
};

} // namespace obs
} // namespace recperf

#endif // RECPERF_OBS_TRACE_HH

/**
 * @file
 * Silent-data-corruption defense for parameter state.
 *
 * Embedding tables dominate the models' DRAM footprint (§II, §V), which
 * makes them the largest silent-data-corruption surface: a flipped bit
 * in a hot row poisons every ranking that touches it without a crash or
 * timeout. This file supplies the functional half of the defense:
 *
 *  - IntegrityShield: per-row FNV-1a checksums plus a golden byte
 *    snapshot over a row-organized parameter block (an fp32 embedding
 *    table), with bit flips and golden-copy repair;
 *  - IntegrityRuntime: a process-wide registry that, when enabled,
 *    samples SLS lookup batches and verifies the touched rows inline.
 *    Disabled (the default) it costs exactly one relaxed atomic load
 *    per lookup batch and leaves eval output bitwise identical.
 *
 * The virtual-time serving model (src/resilience/sdc.hh) reuses the
 * CorruptionKind taxonomy defined here.
 */

#ifndef RECPERF_OPS_INTEGRITY_HH
#define RECPERF_OPS_INTEGRITY_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace recperf {

class EmbeddingTable;

namespace obs {
class MetricsRegistry;
}

/** FNV-1a 64-bit hash (the repo's eval-checksum primitive). */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t h = 0xcbf29ce484222325ULL);

/** Memory-corruption event kinds modeled by the fault axis. */
enum class CorruptionKind
{
    SingleBitFlip, ///< one flipped bit in a row
    MultiBitFlip,  ///< a burst of flipped bits in one row
    StuckRow,      ///< whole row reads as stuck-at-one (0xFF bytes)
};

/** Stable lower_snake name of a corruption kind (logs, traces). */
const char *corruptionKindName(CorruptionKind kind);

/**
 * Checksums + golden copy over a row-organized parameter block.
 *
 * A shield views its target as @c rows logical rows, each the
 * concatenation of one slice per Region (so one row may span several
 * separate arrays). seal() records per-row checksums and a golden byte
 * snapshot; verifyRow()/scanCorrupted() detect divergence; repairRow()
 * restores the golden bytes. Checksum granularity is per row: coarser
 * (whole-table) cannot localize for quarantine, finer (per cache line)
 * multiplies metadata 8x for no extra recall (DESIGN.md §15).
 */
class IntegrityShield
{
  public:
    /** One strided byte slice contributing to every logical row. */
    struct Region
    {
        uint8_t *data;      ///< base of row 0's slice
        size_t strideBytes; ///< distance between consecutive rows
        size_t rowBytes;    ///< bytes contributed per row
    };

    IntegrityShield(std::string name, int64_t rows,
                    std::vector<Region> regions);

    /** Shield an fp32 embedding table (one region: the row). */
    static IntegrityShield forTable(EmbeddingTable &table,
                                    std::string name = "table");

    const std::string &name() const { return name_; }
    int64_t rows() const { return rows_; }

    /** Logical bytes per row (sum over regions). */
    size_t rowBytes() const { return row_bytes_; }

    /** Record per-row checksums and the golden snapshot. */
    void seal();

    bool sealed() const { return !checksums_.empty(); }

    /** Checksum of the row's current bytes. */
    uint64_t rowChecksum(int64_t row) const;

    /** True when the row still matches its sealed checksum. */
    bool verifyRow(int64_t row) const;

    /** Full sweep; returns the rows failing verification. */
    std::vector<int64_t> scanCorrupted() const;

    /** Flip one bit; @p bit_offset indexes the logical row bytes. */
    void flipBit(int64_t row, uint64_t bit_offset);

    /** Restore the golden bytes; true when any byte changed. */
    bool repairRow(int64_t row);

  private:
    uint8_t *rowByte(int64_t row, size_t offset) const;
    void gatherRow(int64_t row, uint8_t *out) const;

    std::string name_;
    int64_t rows_;
    size_t row_bytes_;
    std::vector<Region> regions_;
    std::vector<uint64_t> checksums_; ///< per row, set by seal()
    std::vector<uint8_t> golden_;     ///< rows_ x row_bytes_ snapshot
};

/**
 * Process-wide inline-verification hook on the SLS hot path.
 *
 * Both SLS forwards consult enabled() — one relaxed load — and, only
 * when true, pass their touched IDs to onLookup() before fanning out
 * to the kernel-cache fast path. Lookup batches are sampled
 * deterministically (a per-shield batch counter, independent of thread
 * count: the hook runs serially before the parallelFor); a sampled
 * batch verifies the checksums of its unique touched rows and, on
 * mismatch, repairs from the golden copy so subsequent output is
 * clean. Counters are only meaningful between reset() calls.
 */
class IntegrityRuntime
{
  public:
    static IntegrityRuntime &global();

    /** Fast-path gate; relaxed load, false by default. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on);

    /**
     * @param sample_rate fraction of lookup batches verified, in
     *        (0, 1]; batch k is verified when k % round(1/rate) == 0.
     * @param repair_on_detect restore golden bytes on mismatch.
     */
    void configure(double sample_rate, bool repair_on_detect = true);

    /** Register @p shield for the table whose `this` is @p key. */
    void attach(const void *key, IntegrityShield *shield);

    /** Disable, detach all shields, zero counters, default config. */
    void reset();

    /** Called by the SLS forwards with the batch's touched IDs. */
    void onLookup(const void *key, const std::vector<int64_t> &ids);

    uint64_t batchesSeen() const;
    uint64_t batchesVerified() const;
    uint64_t corruptionsDetected() const;
    uint64_t rowsRepaired() const;

    /** Export integrity.inline.* counters (call only after use). */
    void exportTo(obs::MetricsRegistry &registry) const;

  private:
    IntegrityRuntime() = default;

    struct Entry
    {
        IntegrityShield *shield = nullptr;
        uint64_t batches = 0; ///< lookup batches seen for this shield
    };

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::unordered_map<const void *, Entry> shields_;
    uint64_t every_n_ = 1; ///< verify every Nth batch per shield
    bool repair_on_detect_ = true;
    uint64_t batches_seen_ = 0;
    uint64_t batches_verified_ = 0;
    uint64_t rows_verified_ = 0;
    uint64_t detected_ = 0;
    uint64_t repaired_ = 0;
};

} // namespace recperf

#endif // RECPERF_OPS_INTEGRITY_HH

#include "ops/integrity.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/logging.hh"
#include "obs/metrics.hh"
#include "ops/sparse_lengths_sum.hh"

namespace recperf {

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

const char *
corruptionKindName(CorruptionKind kind)
{
    switch (kind) {
    case CorruptionKind::SingleBitFlip:
        return "single_bit_flip";
    case CorruptionKind::MultiBitFlip:
        return "multi_bit_flip";
    case CorruptionKind::StuckRow:
        return "stuck_row";
    }
    return "unknown";
}

IntegrityShield::IntegrityShield(std::string name, int64_t rows,
                                 std::vector<Region> regions)
    : name_(std::move(name)), rows_(rows), row_bytes_(0),
      regions_(std::move(regions))
{
    RP_ASSERT(rows_ > 0, "shield '%s' needs rows > 0", name_.c_str());
    RP_ASSERT(!regions_.empty(), "shield '%s' needs a region",
              name_.c_str());
    for (const Region &r : regions_) {
        RP_ASSERT(r.data != nullptr && r.rowBytes > 0 &&
                      r.strideBytes >= r.rowBytes,
                  "shield '%s': bad region", name_.c_str());
        row_bytes_ += r.rowBytes;
    }
}

IntegrityShield
IntegrityShield::forTable(EmbeddingTable &table, std::string name)
{
    size_t row = static_cast<size_t>(table.dim()) * sizeof(float);
    return IntegrityShield(
        std::move(name), table.rows(),
        {{reinterpret_cast<uint8_t *>(table.table().data()), row, row}});
}

uint8_t *
IntegrityShield::rowByte(int64_t row, size_t offset) const
{
    for (const Region &r : regions_) {
        if (offset < r.rowBytes)
            return r.data + static_cast<size_t>(row) * r.strideBytes +
                offset;
        offset -= r.rowBytes;
    }
    RP_ASSERT(false, "shield '%s': byte offset out of row",
              name_.c_str());
    return nullptr;
}

void
IntegrityShield::gatherRow(int64_t row, uint8_t *out) const
{
    for (const Region &r : regions_) {
        std::memcpy(out, r.data + static_cast<size_t>(row) * r.strideBytes,
                    r.rowBytes);
        out += r.rowBytes;
    }
}

void
IntegrityShield::seal()
{
    checksums_.assign(static_cast<size_t>(rows_), 0);
    golden_.resize(static_cast<size_t>(rows_) * row_bytes_);
    for (int64_t row = 0; row < rows_; ++row) {
        uint8_t *dst = golden_.data() +
            static_cast<size_t>(row) * row_bytes_;
        gatherRow(row, dst);
        checksums_[static_cast<size_t>(row)] = fnv1a(dst, row_bytes_);
    }
}

uint64_t
IntegrityShield::rowChecksum(int64_t row) const
{
    RP_ASSERT(row >= 0 && row < rows_, "row %lld out of %lld",
              static_cast<long long>(row), static_cast<long long>(rows_));
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const Region &r : regions_)
        h = fnv1a(r.data + static_cast<size_t>(row) * r.strideBytes,
                  r.rowBytes, h);
    return h;
}

bool
IntegrityShield::verifyRow(int64_t row) const
{
    RP_ASSERT(sealed(), "shield '%s' not sealed", name_.c_str());
    return rowChecksum(row) == checksums_[static_cast<size_t>(row)];
}

std::vector<int64_t>
IntegrityShield::scanCorrupted() const
{
    std::vector<int64_t> bad;
    for (int64_t row = 0; row < rows_; ++row)
        if (!verifyRow(row))
            bad.push_back(row);
    return bad;
}

void
IntegrityShield::flipBit(int64_t row, uint64_t bit_offset)
{
    RP_ASSERT(row >= 0 && row < rows_, "row %lld out of %lld",
              static_cast<long long>(row), static_cast<long long>(rows_));
    RP_ASSERT(bit_offset < row_bytes_ * 8, "bit %llu out of row",
              static_cast<unsigned long long>(bit_offset));
    *rowByte(row, static_cast<size_t>(bit_offset / 8)) ^=
        static_cast<uint8_t>(1u << (bit_offset % 8));
}

bool
IntegrityShield::repairRow(int64_t row)
{
    RP_ASSERT(sealed(), "shield '%s' not sealed", name_.c_str());
    RP_ASSERT(row >= 0 && row < rows_, "row %lld out of %lld",
              static_cast<long long>(row), static_cast<long long>(rows_));
    const uint8_t *src = golden_.data() +
        static_cast<size_t>(row) * row_bytes_;
    bool changed = false;
    size_t offset = 0;
    for (const Region &r : regions_) {
        uint8_t *dst = r.data + static_cast<size_t>(row) * r.strideBytes;
        if (std::memcmp(dst, src + offset, r.rowBytes) != 0) {
            std::memcpy(dst, src + offset, r.rowBytes);
            changed = true;
        }
        offset += r.rowBytes;
    }
    return changed;
}

IntegrityRuntime &
IntegrityRuntime::global()
{
    static IntegrityRuntime runtime;
    return runtime;
}

void
IntegrityRuntime::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
IntegrityRuntime::configure(double sample_rate, bool repair_on_detect)
{
    RP_ASSERT(sample_rate > 0.0 && sample_rate <= 1.0,
              "inline sample rate %g outside (0,1]", sample_rate);
    std::lock_guard<std::mutex> lock(mu_);
    every_n_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(1.0 / sample_rate)));
    repair_on_detect_ = repair_on_detect;
}

void
IntegrityRuntime::attach(const void *key, IntegrityShield *shield)
{
    RP_ASSERT(shield != nullptr && shield->sealed(),
              "attach requires a sealed shield");
    std::lock_guard<std::mutex> lock(mu_);
    shields_[key] = Entry{shield, 0};
}

void
IntegrityRuntime::reset()
{
    setEnabled(false);
    std::lock_guard<std::mutex> lock(mu_);
    shields_.clear();
    every_n_ = 1;
    repair_on_detect_ = true;
    batches_seen_ = 0;
    batches_verified_ = 0;
    rows_verified_ = 0;
    detected_ = 0;
    repaired_ = 0;
}

void
IntegrityRuntime::onLookup(const void *key,
                           const std::vector<int64_t> &ids)
{
    // Runs before the forward's parallelFor, so the per-shield batch
    // counter (and thus which batches verify) is independent of the
    // worker thread count.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shields_.find(key);
    if (it == shields_.end())
        return;
    Entry &entry = it->second;
    ++batches_seen_;
    if (++entry.batches % every_n_ != 0)
        return;
    ++batches_verified_;
    std::vector<int64_t> rows(ids);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    for (int64_t row : rows) {
        ++rows_verified_;
        if (entry.shield->verifyRow(row))
            continue;
        ++detected_;
        if (repair_on_detect_ && entry.shield->repairRow(row))
            ++repaired_;
    }
}

uint64_t
IntegrityRuntime::batchesSeen() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return batches_seen_;
}

uint64_t
IntegrityRuntime::batchesVerified() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return batches_verified_;
}

uint64_t
IntegrityRuntime::corruptionsDetected() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return detected_;
}

uint64_t
IntegrityRuntime::rowsRepaired() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return repaired_;
}

void
IntegrityRuntime::exportTo(obs::MetricsRegistry &registry) const
{
    std::lock_guard<std::mutex> lock(mu_);
    registry.counter("integrity.inline.batches").add(batches_seen_);
    registry.counter("integrity.inline.verified_batches")
        .add(batches_verified_);
    registry.counter("integrity.inline.rows_verified")
        .add(rows_verified_);
    registry.counter("integrity.inline.detected").add(detected_);
    registry.counter("integrity.inline.repaired").add(repaired_);
}

} // namespace recperf

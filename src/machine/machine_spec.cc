#include "machine/machine_spec.hh"

#include <cmath>

#include "core/aligned.hh"
#include "core/logging.hh"

namespace recperf {

namespace {

// Per-core cache stream bandwidth in bytes per cycle. These scale with
// core frequency, which is why moderate-batch GEMMs (cache-resident
// panels) favour the higher-clocked Broadwell over Skylake (Section V).
constexpr double kL1BytesPerCycle = 96.0;
constexpr double kL2BytesPerCycle = 48.0;
constexpr double kL3BytesPerCycle = 24.0;

// Out-of-order overlap achieved on dependent gathers that hit in the
// cache hierarchy (fraction of the full load-to-use latency exposed).
constexpr double kGatherHitOverlap = 0.5;

} // namespace

uint32_t
MachineSpec::dramLatencyCycles() const
{
    return static_cast<uint32_t>(std::lround(dram.latencyNs * freqGHz));
}

double
MachineSpec::dispatchCyclesFor(OpKind kind) const
{
    switch (kind) {
      case OpKind::FC:
      case OpKind::BatchMM:
      case OpKind::Conv:
      case OpKind::Recurrent:
        return dispatchCyclesFc;
      case OpKind::SLS:
        return dispatchCyclesSls;
      default:
        return dispatchCyclesLight;
    }
}

double
MachineSpec::dispatchSeconds(OpKind kind) const
{
    return dispatchCyclesFor(kind) / cyclesPerSecond();
}

std::unique_ptr<CacheHierarchy>
MachineSpec::makeHierarchy(uint32_t tenants) const
{
    RP_ASSERT(tenants > 0, "need at least one tenant");
    return std::make_unique<CacheHierarchy>(tenants, l1, l2, l3, policy,
                                            prefetch);
}

double
MachineSpec::streamSeconds(HitLevel level, double bytes) const
{
    switch (level) {
      case HitLevel::L1:
        return bytes / (kL1BytesPerCycle * cyclesPerSecond());
      case HitLevel::L2:
        return bytes / (kL2BytesPerCycle * cyclesPerSecond());
      case HitLevel::L3:
        return bytes / (kL3BytesPerCycle * cyclesPerSecond());
      case HitLevel::Memory:
        return bytes / (dram.streamGBps() * 1e9);
    }
    RP_PANIC("unreachable hit level");
}

double
DramConfig::gatherMlpFactor(int64_t batch) const
{
    double b = static_cast<double>(batch);
    return 1.0 + gatherMlpGain * b / (b + 64.0);
}

double
MachineSpec::gatherSeconds(HitLevel level, double lines, int64_t batch) const
{
    switch (level) {
      case HitLevel::L1:
      case HitLevel::L2:
      case HitLevel::L3: {
        // Cache-hit gathers partially overlap in the OoO window.
        const LevelConfig &cfg = level == HitLevel::L1 ? l1
            : level == HitLevel::L2 ? l2 : l3;
        double cycles = lines * cfg.latencyCycles * kGatherHitOverlap;
        return cycles / cyclesPerSecond();
      }
      case HitLevel::Memory:
        // Dependent random gathers achieve only gatherGBps of DRAM
        // bandwidth (~1 GB/s on Broadwell, Section V); batching exposes
        // independent misses that overlap (gatherMlpFactor).
        return lines * kCacheLineBytes /
            (dram.gatherGBps() * dram.gatherMlpFactor(batch) * 1e9);
    }
    RP_PANIC("unreachable hit level");
}

MachineSpec
haswell()
{
    MachineSpec m;
    m.name = "Haswell";
    m.freqGHz = 2.5;
    m.coresPerSocket = 12;
    m.sockets = 2;
    // The paper's Haswell parts sustain roughly half of Broadwell's
    // packed-FMA throughput on these GEMM kernels; modeled as reduced
    // effective issue (calibrated to the batch-16 latency ratios).
    m.simd = makeAvx2Model(/*fma_ports=*/1.5);
    m.l1 = {32 * 1024, 8, 4};
    m.l2 = {256 * 1024, 8, 12};
    m.l3 = {30ull * 1024 * 1024, 20, 36};
    m.policy = InclusionPolicy::Inclusive;
    m.dram = {"DDR3", 1600.0, 51.0, 100.0, 0.60, 0.011, 0.10};
    return m;
}

MachineSpec
broadwell()
{
    MachineSpec m;
    m.name = "Broadwell";
    m.freqGHz = 2.4;
    m.coresPerSocket = 14;
    m.sockets = 2;
    m.simd = makeAvx2Model();
    m.l1 = {32 * 1024, 8, 4};
    m.l2 = {256 * 1024, 8, 12};
    m.l3 = {35ull * 1024 * 1024, 20, 38};
    m.policy = InclusionPolicy::Inclusive;
    m.dram = {"DDR4", 2400.0, 77.0, 90.0, 0.60, 0.011, 0.25};
    return m;
}

MachineSpec
skylake()
{
    MachineSpec m;
    m.name = "Skylake";
    m.freqGHz = 2.0;
    m.coresPerSocket = 20;
    m.sockets = 2;
    m.simd = makeAvx512Model();
    m.l1 = {32 * 1024, 8, 4};
    m.l2 = {1024 * 1024, 16, 14};
    m.l3 = {static_cast<uint64_t>(27.5 * 1024 * 1024), 11, 44};
    m.policy = InclusionPolicy::Exclusive;
    m.dram = {"DDR4", 2666.0, 85.0, 85.0, 0.60, 0.011, 0.80};
    return m;
}

std::vector<MachineSpec>
fleetMachines()
{
    return {haswell(), broadwell(), skylake()};
}

} // namespace recperf

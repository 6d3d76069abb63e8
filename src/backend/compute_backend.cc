#include "backend/compute_backend.hh"

#include "backend/cpu_backend.hh"
#include "backend/nmp_backend.hh"
#include "core/logging.hh"
#include "ops/microkernels.hh"

namespace recperf {

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Cpu: return "cpu";
      case BackendKind::Nmp: return "nmp";
    }
    return "unknown";
}

bool
backendKindFromName(const std::string &name, BackendKind *out)
{
    BackendKind kind;
    if (name == "cpu" || name.empty())
        kind = BackendKind::Cpu;
    else if (name == "nmp")
        kind = BackendKind::Nmp;
    else
        return false;
    if (out)
        *out = kind;
    return true;
}

const char *
nmpPlacementName(NmpPlacement placement)
{
    switch (placement) {
      case NmpPlacement::Auto: return "auto";
      case NmpPlacement::All: return "all";
      case NmpPlacement::None: return "none";
    }
    return "unknown";
}

bool
nmpPlacementFromName(const std::string &name, NmpPlacement *out)
{
    NmpPlacement placement;
    if (name == "auto" || name.empty())
        placement = NmpPlacement::Auto;
    else if (name == "all")
        placement = NmpPlacement::All;
    else if (name == "none")
        placement = NmpPlacement::None;
    else
        return false;
    if (out)
        *out = placement;
    return true;
}

std::string
NmpConfig::validate() const
{
    if (ranks < 1)
        return strprintf("nmp ranks must be >= 1 (got %u)", ranks);
    if (rankGBps <= 0.0)
        return strprintf("nmp rank bandwidth must be positive (got %g "
                         "GB/s)", rankGBps);
    if (rowAccessNs < 0.0)
        return strprintf("nmp row access latency cannot be negative "
                         "(got %g ns)", rowAccessNs);
    if (linkGBps <= 0.0)
        return strprintf("nmp link bandwidth must be positive (got %g "
                         "GB/s)", linkGBps);
    if (launchUs < 0.0)
        return strprintf("nmp launch latency cannot be negative (got %g "
                         "us)", launchUs);
    if (hostLlcFraction < 0.0 || hostLlcFraction > 1.0)
        return strprintf("nmp host-LLC fraction must be in [0, 1] (got "
                         "%g)", hostLlcFraction);
    return "";
}

std::string
backendConfigFromSpec(const std::string &backend_name,
                      const std::string &isa_name, BackendConfig *out)
{
    BackendConfig config;
    if (!backendKindFromName(backend_name, &config.kind)) {
        return "unknown backend '" + backend_name +
            "' (expected cpu|nmp)";
    }
    std::string err = isaPolicyFromName(isa_name, &config.isa);
    if (!err.empty())
        return err;
    if (!config.isa.autoSelect &&
        !microkernels::kernelsFor(config.isa.pinned).available) {
        return "ISA tier '" + isa_name +
            "' was not compiled into this binary";
    }
    if (out)
        *out = config;
    return "";
}

std::unique_ptr<ComputeBackend>
makeBackend(const BackendConfig &config)
{
    std::string err = config.nmp.validate();
    RP_ASSERT(err.empty(), "%s", err.c_str());
    if (config.kind == BackendKind::Nmp)
        return std::make_unique<NmpBackend>(config);
    return std::make_unique<CpuBackend>(config);
}

namespace {

BackendConfig &
activeConfig()
{
    static BackendConfig *config = new BackendConfig();
    return *config;
}

} // namespace

const BackendConfig &
activeBackendConfig()
{
    return activeConfig();
}

void
setActiveBackend(const BackendConfig &config)
{
    std::string err = config.nmp.validate();
    RP_ASSERT(err.empty(), "%s", err.c_str());
    activeConfig() = config;
    KernelCache::global().setPolicy(config.isa);
}

} // namespace recperf

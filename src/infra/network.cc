#include "infra/network.hh"

#include "sim/logging.hh"

namespace vcp {

Network::Network(Simulator &sim, const NetworkConfig &cfg_)
    : cfg(cfg_)
{
    if (cfg.core_bandwidth <= 0.0)
        fatal("Network: core bandwidth must be positive");
    fab = std::make_unique<Fabric>(sim, cfg.core_bandwidth);
    if (cfg.fabric.preset == FabricPreset::LeafSpine)
        fab->buildLeafSpine(cfg.fabric);
}

} // namespace vcp

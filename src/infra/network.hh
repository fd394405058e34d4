/**
 * @file
 * Management-network model.
 *
 * Cross-datastore clones and live migrations move bulk data over the
 * network.  The data path is a routed Fabric (fabric.hh): by default
 * the degenerate single-link topology — one shared core pipe
 * (processor-sharing), the original flat model — and optionally a
 * leaf-spine topology whose per-link contention localizes congestion
 * to the bottleneck link.  Only bulk data moves over it: control
 * messages carry no latency of their own, and per-host NICs are not
 * modeled separately (see DESIGN.md).
 */

#ifndef VCP_INFRA_NETWORK_HH
#define VCP_INFRA_NETWORK_HH

#include <memory>
#include <string>

#include "infra/bandwidth.hh"
#include "infra/fabric.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

namespace vcp {

/** Static sizing of the management network. */
struct NetworkConfig
{
    /** Core fabric bandwidth available to bulk management traffic
     *  (the degenerate single link's capacity). */
    double core_bandwidth = 1.25e9; // 10 Gb/s in bytes/s

    /** Data-path topology (default: degenerate single link). */
    FabricConfig fabric;
};

/** The shared management network. */
class Network
{
  public:
    Network(Simulator &sim, const NetworkConfig &cfg);

    const NetworkConfig &config() const { return cfg; }

    /**
     * Shared bulk-transfer pipe of the degenerate fabric — the
     * classic flat model.  With a multi-link topology this is just
     * the first link; route transfers through topology() instead.
     */
    SharedBandwidthResource &fabric() { return fab->link(0); }
    const SharedBandwidthResource &fabric() const
    {
        return fab->link(0);
    }

    /** The routed data-path topology. */
    Fabric &topology() { return *fab; }
    const Fabric &topology() const { return *fab; }

  private:
    NetworkConfig cfg;
    std::unique_ptr<Fabric> fab;
};

} // namespace vcp

#endif // VCP_INFRA_NETWORK_HH

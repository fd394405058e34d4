/**
 * @file
 * Virtual machine model: configuration, power-state machine, and
 * placement bookkeeping.  All state *transitions* are driven by the
 * control plane (tasks); the Vm itself only validates legality.
 */

#ifndef VCP_INFRA_VM_HH
#define VCP_INFRA_VM_HH

#include <string>
#include <vector>

#include "infra/ids.hh"
#include "sim/types.hh"

namespace vcp {

/** VM power states, including the transitional ones tasks hold. */
enum class PowerState
{
    PoweredOff,
    PoweringOn,
    PoweredOn,
    PoweringOff,
};

/** @return short name for a PowerState. */
const char *powerStateName(PowerState s);

/** One virtual machine (or template) in the inventory. */
class Vm
{
  public:
    VmId id;
    std::string name;

    /** Virtual CPU count. */
    int vcpus = 1;

    /** Configured guest memory. */
    Bytes memory = 0;

    /** Disks attached, in device order. */
    std::vector<DiskId> disks;

    /** Host the VM is registered on; invalid if unregistered. */
    HostId host;

    /** Owning tenant; invalid for infrastructure templates. */
    TenantId tenant;

    /** Containing vApp; invalid for standalone VMs. */
    VAppId vapp;

    /** Simulated creation timestamp. */
    SimTime created_at = 0;

    /** Templates can be cloned from but never powered on. */
    bool is_template = false;

    PowerState powerState() const { return power; }

    /**
     * @return true if a transition from the current power state to
     * @p target is legal per the state machine below.
     *
     *   PoweredOff  -> PoweringOn
     *   PoweringOn  -> PoweredOn | PoweredOff (failure)
     *   PoweredOn   -> PoweringOff
     *   PoweringOff -> PoweredOff
     */
    bool canTransitionTo(PowerState target) const;

    /**
     * Apply a power-state transition.
     * @return false (and leave state unchanged) if illegal.
     */
    bool transitionTo(PowerState target);

    /** Force a state (used when building fixtures, not by tasks). */
    void forcePowerState(PowerState s) { power = s; }

  private:
    PowerState power = PowerState::PoweredOff;
};

} // namespace vcp

#endif // VCP_INFRA_VM_HH

/**
 * @file
 * User-visible cloud actions the workload generator issues.  Each
 * action expands into one or more primitive management operations —
 * the expansion factor is itself a finding of the characterization
 * (a single self-service deploy induces a burst of control-plane
 * work).
 */

#ifndef VCP_WORKLOAD_ACTIONS_HH
#define VCP_WORKLOAD_ACTIONS_HH

#include <cstddef>

namespace vcp {

/** Self-service / admin actions generated by the workload. */
enum class CloudAction
{
    Deploy,         ///< deploy a vApp from a catalog template
    EarlyUndeploy,  ///< user tears a vApp down before its lease ends
    PowerCycle,     ///< power-off + power-on of one VM
    Reconfigure,    ///< resize one VM
    Snapshot,       ///< snapshot one VM
    RemoveSnapshot, ///< consolidate one VM's snapshot
    AdminMigrate,   ///< operator live-migrates one VM
    NumActions
};

constexpr std::size_t kNumCloudActions =
    static_cast<std::size_t>(CloudAction::NumActions);

/** Stable short name for an action. */
const char *cloudActionName(CloudAction a);

} // namespace vcp

#endif // VCP_WORKLOAD_ACTIONS_HH

#include "workload/actions.hh"

namespace vcp {

const char *
cloudActionName(CloudAction a)
{
    switch (a) {
      case CloudAction::Deploy:
        return "deploy";
      case CloudAction::EarlyUndeploy:
        return "early-undeploy";
      case CloudAction::PowerCycle:
        return "power-cycle";
      case CloudAction::Reconfigure:
        return "reconfigure";
      case CloudAction::Snapshot:
        return "snapshot";
      case CloudAction::RemoveSnapshot:
        return "remove-snapshot";
      case CloudAction::AdminMigrate:
        return "admin-migrate";
      case CloudAction::NumActions:
        break;
    }
    return "unknown";
}

} // namespace vcp

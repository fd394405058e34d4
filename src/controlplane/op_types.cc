#include "controlplane/op_types.hh"

namespace vcp {

const char *
opTypeName(OpType t)
{
    switch (t) {
      case OpType::PowerOn:
        return "power-on";
      case OpType::PowerOff:
        return "power-off";
      case OpType::CloneFull:
        return "clone-full";
      case OpType::CloneLinked:
        return "clone-linked";
      case OpType::Destroy:
        return "destroy";
      case OpType::Reconfigure:
        return "reconfigure";
      case OpType::Snapshot:
        return "snapshot";
      case OpType::RemoveSnapshot:
        return "remove-snapshot";
      case OpType::Relocate:
        return "relocate";
      case OpType::Migrate:
        return "migrate";
      case OpType::AddHost:
        return "add-host";
      case OpType::EnterMaintenance:
        return "enter-maintenance";
      case OpType::ExitMaintenance:
        return "exit-maintenance";
      case OpType::ReplicateBaseDisk:
        return "replicate-base-disk";
      case OpType::NumOpTypes:
        break;
    }
    return "unknown";
}

OpCategory
opCategory(OpType t)
{
    switch (t) {
      case OpType::PowerOn:
      case OpType::PowerOff:
        return OpCategory::Power;
      case OpType::CloneFull:
      case OpType::CloneLinked:
      case OpType::Destroy:
        return OpCategory::Provisioning;
      case OpType::Reconfigure:
      case OpType::Snapshot:
      case OpType::RemoveSnapshot:
        return OpCategory::Configuration;
      case OpType::Relocate:
      case OpType::Migrate:
        return OpCategory::Mobility;
      case OpType::AddHost:
      case OpType::EnterMaintenance:
      case OpType::ExitMaintenance:
      case OpType::ReplicateBaseDisk:
      case OpType::NumOpTypes:
        return OpCategory::Infrastructure;
    }
    return OpCategory::Infrastructure;
}

const char *
opCategoryName(OpCategory c)
{
    switch (c) {
      case OpCategory::Power:
        return "power";
      case OpCategory::Provisioning:
        return "provisioning";
      case OpCategory::Configuration:
        return "configuration";
      case OpCategory::Mobility:
        return "mobility";
      case OpCategory::Infrastructure:
        return "infrastructure";
      case OpCategory::NumCategories:
        break;
    }
    return "unknown";
}

} // namespace vcp

/**
 * @file
 * The management-operation taxonomy.
 *
 * These are the primitive verbs a vCenter-class management server
 * executes.  The cloud layer composes them into self-service
 * workflows (deploy vApp, expire lease, rebalance a base-disk pool);
 * the workload profiles are distributions over these verbs.
 */

#ifndef VCP_CONTROLPLANE_OP_TYPES_HH
#define VCP_CONTROLPLANE_OP_TYPES_HH

#include <cstddef>
#include <string>

#include "infra/ids.hh"
#include "sim/types.hh"

namespace vcp {

/** Primitive management operations. */
enum class OpType
{
    // Power verbs
    PowerOn,
    PowerOff,

    // Provisioning verbs
    CloneFull,     ///< full copy of a source VM/template
    CloneLinked,   ///< delta disk off a prepared base disk
    Destroy,       ///< delete VM and its disks

    // Configuration verbs
    Reconfigure,   ///< change vCPU/memory/devices
    Snapshot,
    RemoveSnapshot,

    // Mobility verbs
    Relocate,      ///< cold migration (moves disks)
    Migrate,       ///< live migration (moves memory image)

    // Infrastructure verbs ("cloud reconfiguration" building blocks)
    AddHost,
    EnterMaintenance,
    ExitMaintenance,
    ReplicateBaseDisk,   ///< copy a linked-clone base to another DS

    NumOpTypes
};

/** Number of operation types (for arrays indexed by OpType). */
constexpr std::size_t kNumOpTypes =
    static_cast<std::size_t>(OpType::NumOpTypes);

/** Stable short name ("clone-linked") for reports and traces. */
const char *opTypeName(OpType t);

/** Coarse categories used by the characterization tables. */
enum class OpCategory
{
    Power,
    Provisioning,
    Configuration,
    Mobility,
    Infrastructure,
    NumCategories
};

constexpr std::size_t kNumOpCategories =
    static_cast<std::size_t>(OpCategory::NumCategories);

/** Category of an operation type. */
OpCategory opCategory(OpType t);

/** Stable name for a category. */
const char *opCategoryName(OpCategory c);

/**
 * A request submitted to the management server.  Fields are
 * interpreted per op type; unused fields stay invalid/zero.
 */
struct OpRequest
{
    OpType type = OpType::PowerOn;

    /** Target VM (source VM for clones). */
    VmId vm;

    /** Destination host (for provisioning/mobility/infra verbs). */
    HostId host;

    /** Destination datastore (provisioning/mobility). */
    DatastoreId datastore;

    /** Requesting tenant; drives fair-share scheduling. */
    TenantId tenant;

    /** Name for a newly created VM. */
    std::string name;

    /** New shape (Reconfigure); clones take their source's.  A full
     *  clone of a diskless source gets a disk_size flat disk. */
    int vcpus = 1;
    Bytes memory = gib(1);
    Bytes disk_size = gib(8);

    /** Base disk for CloneLinked / ReplicateBaseDisk. */
    DiskId base_disk;

    /** Scheduling priority; lower dispatches first (Priority policy). */
    int priority = 0;
};

} // namespace vcp

#endif // VCP_CONTROLPLANE_OP_TYPES_HH

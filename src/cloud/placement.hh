/**
 * @file
 * Placement engine: chooses the host and datastore a new VM lands
 * on.  Host choice is load-aware (least committed CPU); datastore
 * choice is a policy (spread by free space, pack, round-robin).  For
 * linked clones the engine prefers a datastore that already holds a
 * usable base-disk replica — placement quality and pool state are
 * coupled, which is exactly why provisioning pressure forces pool
 * reconfiguration.
 */

#ifndef VCP_CLOUD_PLACEMENT_HH
#define VCP_CLOUD_PLACEMENT_HH

#include <utility>
#include <vector>

#include "cloud/pool_manager.hh"
#include "infra/inventory.hh"

namespace vcp {

/** Datastore-selection policies. */
enum class DsPolicy
{
    MostFree,   ///< spread: largest free space first
    Pack,       ///< fill the fullest datastore that still fits
    RoundRobin, ///< rotate across eligible datastores
};

const char *dsPolicyName(DsPolicy p);

/** What the caller wants to place. */
struct PlacementQuery
{
    int vcpus = 1;
    Bytes memory = gib(1);

    /** Bytes the new VM's disk will need on the datastore. */
    Bytes disk_need = 0;

    /** Template (for linked-clone base lookup). */
    TemplateId tmpl;

    /** Linked-clone placement (prefer datastores with a base). */
    bool linked = false;
};

/** Result of a placement decision. */
struct Placement
{
    bool ok = false;
    HostId host;
    DatastoreId datastore;

    /** For linked queries: a usable base replica, if one was found
     *  on the chosen datastore. */
    bool base_found = false;
    BaseReplica base;
};

/**
 * Load- and pool-aware host/datastore selection.
 *
 * Successful placements reserve their CPU/memory footprint in a
 * *pending* ledger until the caller resolves them (the VM powered on
 * and committed real resources, or the provisioning failed).
 * Without this, a burst of simultaneous deploys all sees the same
 * committed load and piles onto one host.
 */
class PlacementEngine
{
  public:
    /**
     * @param inventory the infrastructure.
     * @param pool base-disk pool (may be nullptr when the cloud only
     *        does full clones).
     * @param policy datastore-selection policy.
     */
    PlacementEngine(Inventory &inventory, BaseDiskPoolManager *pool,
                    DsPolicy policy);

    /**
     * Decide where a VM should go: the first host, in ascending
     * (effective load, id) order, that admits the query and has a
     * usable base replica or a datastore that fits.  The effective
     * load is (committed + pending vCPUs) / vCPU capacity.  On success
     * the query's footprint is held as pending on the chosen host;
     * the caller must call resolve() exactly once when the outcome is
     * known.
     */
    Placement place(const PlacementQuery &q);

    /** Release a pending footprint taken by a successful place(). */
    void resolve(HostId host, int vcpus, Bytes memory);

    /** Pending (placed but unresolved) vCPUs on a host. */
    int pendingVcpus(HostId host) const;

    /** Pending memory on a host. */
    Bytes pendingMemory(HostId host) const;

    DsPolicy policy() const { return ds_policy; }
    void setPolicy(DsPolicy p) { ds_policy = p; }

  private:
    struct PendingLoad
    {
        int vcpus = 0;
        Bytes memory = 0;
    };

    /** Pick a datastore on @p host per policy; invalid if none fit. */
    DatastoreId pickDatastore(const Host &host, Bytes need);

    /** Admission including the pending ledger. */
    bool admits(const Host &host, const PlacementQuery &q) const;

    Inventory &inv;
    BaseDiskPoolManager *pool;
    DsPolicy ds_policy;
    std::size_t rr_cursor = 0;
    std::unordered_map<HostId, PendingLoad> pending;

    /** place()'s min-heap of (effective load, host); reused. */
    std::vector<std::pair<double, HostId>> by_load;
};

} // namespace vcp

#endif // VCP_CLOUD_PLACEMENT_HH

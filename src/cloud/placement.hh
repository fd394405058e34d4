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

#include <set>
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
 *
 * The engine keeps its hosts ordered by (effective load, id) and by
 * (committed load, id) between calls.  It is the one consumer of its
 * inventory's load-change list (Inventory::drainLoadChanges()):
 * place() and leastCommitted() first index new hosts and re-key the
 * hosts on that list, and place() re-keys the host it accepts.  So a
 * call costs O(changed hosts * log hosts + hosts skipped), not a walk
 * of the fleet.
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

    /**
     * Where a migration should move @p vm: of the hosts other than
     * @p from that are connected, not in maintenance, admit the VM's
     * shape and reach the datastore of every disk it has, the one
     * with the lowest Host::cpuLoad() (committed load; the pending
     * ledger does not count), the lowest id on a tie.  Invalid when
     * no host qualifies.  Admin migrations and maintenance
     * evacuations both choose their target here.
     */
    HostId migrationTarget(const Vm &vm, HostId from);

    /**
     * The first host in ascending (Host::cpuLoad(), id) order for
     * which @p accept(host) holds: the least committed such host, the
     * lowest id on a tie.  The pending ledger does not count.  Invalid
     * when no host qualifies.  migrationTarget() and the base-disk
     * pool's replication worker choose here.
     */
    template <typename Accept>
    HostId
    leastCommitted(Accept &&accept)
    {
        syncIndex();
        for (const auto &[load, h] : by_committed)
            if (accept(inv.host(h)))
                return h;
        return HostId();
    }

    /**
     * Release a pending footprint taken by a successful place().  It
     * only marks the host's load as changed; the next place()
     * re-keys it.  So resolve() may run on the thread that runs the
     * inventory's events while no place() is in flight.
     */
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

    /** (committed + pending vCPUs) / vCPU capacity. */
    double effectiveLoad(const Host &host) const;

    /** Hosts in ascending (load, id) order. */
    using LoadIndex = std::set<std::pair<double, HostId>>;

    /** A host's node in each index. */
    struct Nodes
    {
        LoadIndex::iterator effective;
        LoadIndex::iterator committed;
    };

    /** Index hosts added since the last call; re-key changed ones. */
    void syncIndex();

    /** Move @p node of @p index to @p load (no allocation). */
    static LoadIndex::iterator rekey(LoadIndex &index,
                                     LoadIndex::iterator node,
                                     double load);

    Inventory &inv;
    BaseDiskPoolManager *pool;
    DsPolicy ds_policy;
    std::size_t rr_cursor = 0;
    std::unordered_map<HostId, PendingLoad> pending;

    /** place()'s visit order: (effectiveLoad(), id). */
    LoadIndex by_load;

    /** leastCommitted()'s visit order: (Host::cpuLoad(), id). */
    LoadIndex by_committed;

    /** Each indexed host's nodes, by arena slot. */
    std::vector<Nodes> nodes;
};

} // namespace vcp

#endif // VCP_CLOUD_PLACEMENT_HH

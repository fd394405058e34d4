/**
 * @file
 * Base-disk pool manager — the "cloud reconfiguration" engine.
 *
 * Linked-clone provisioning needs a base-disk replica *on the
 * datastore where the clone will live*.  Replicas support a bounded
 * number of clones each (fan-out cap), so as provisioning rates grow
 * the pool must be re-seeded onto more datastores.  The paper's
 * observation: at cloud provisioning rates, this previously
 * infrequent reconfiguration becomes a continuous, aggressive
 * background activity.  Two policies are provided:
 *
 *  - lazy:       replicate only when a deploy finds no usable replica
 *                (the deploy stalls behind the multi-GB copy);
 *  - aggressive: a periodic scan maintains a replication factor and
 *                pre-replicates when pool utilization crosses a
 *                threshold, keeping the copy off the deploy path.
 */

#ifndef VCP_CLOUD_POOL_MANAGER_HH
#define VCP_CLOUD_POOL_MANAGER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "controlplane/management_server.hh"
#include "infra/ids.hh"
#include "sim/types.hh"

namespace vcp {

class PlacementEngine;

/** Pool-management policy knobs. */
struct PoolConfig
{
    /** Replicas the aggressive policy maintains per template. */
    int replication_factor = 1;

    /** Enable the proactive maintenance scan. */
    bool aggressive = false;

    /** Max linked clones one replica backs. */
    int max_clones_per_base = 32;

    /** Max replicas of one template on a single datastore. */
    int max_replicas_per_datastore = 4;

    /**
     * Aggressive policy: pre-replicate when the fraction of used
     * clone slots across the pool exceeds this.
     */
    double preplicate_threshold = 0.7;

    /** Aggressive scan period. */
    SimDuration check_period = minutes(5);
};

/** One base-disk replica of a template. */
struct BaseReplica
{
    DiskId disk;
    DatastoreId datastore;
};

/** Manages per-template base-disk replica pools. */
class BaseDiskPoolManager
{
  public:
    /**
     * @param placement the engine whose committed-load order picks
     *        each replication's worker host; only stored here, so it
     *        may be constructed after the pool manager.
     */
    BaseDiskPoolManager(ManagementServer &server, const PoolConfig &cfg,
                        PlacementEngine &placement);

    BaseDiskPoolManager(const BaseDiskPoolManager &) = delete;
    BaseDiskPoolManager &operator=(const BaseDiskPoolManager &) = delete;

    const PoolConfig &config() const { return cfg; }

    /**
     * Register a template with its seed replica (the golden master's
     * own flat disk).
     */
    void registerTemplate(TemplateId tmpl, DiskId seed_disk);

    /**
     * Find a usable replica reachable from @p host with room for a
     * delta of @p delta_need bytes.  Prefers the least-subscribed
     * replica.
     */
    std::optional<BaseReplica> findReplica(TemplateId tmpl, HostId host,
                                           Bytes delta_need) const;

    /**
     * Guarantee a usable replica reachable from @p host, replicating
     * if necessary (the lazy path).  The callback receives the
     * replica, or nullopt if replication was impossible or failed.
     */
    void ensureReplica(
        TemplateId tmpl, HostId host, Bytes delta_need,
        std::function<void(std::optional<BaseReplica>)> done);

    /** Begin the periodic aggressive maintenance scan. */
    void startMaintenance();

    /** One maintenance pass (also usable directly from tests). */
    void runMaintenanceOnce();

    /** Replicas currently registered for a template. */
    const std::vector<BaseReplica> &replicas(TemplateId tmpl) const;

    /**
     * Fraction of clone slots used across a template's pool,
     * counting only replicas that still exist.
     */
    double poolUtilization(TemplateId tmpl) const;

    /** @{ Lifetime counters. */
    std::uint64_t replicationsIssued() const { return repl_issued; }
    std::uint64_t replicationsSucceeded() const { return repl_ok; }
    std::uint64_t replicationsFailed() const { return repl_failed; }
    /** @} */

  private:
    using EnsureCb = std::function<void(std::optional<BaseReplica>)>;

    /** True if @p r can host a new clone from @p host. */
    bool usable(const BaseReplica &r, HostId host,
                Bytes delta_need) const;

    /**
     * Pick a datastore for a new replica: reachable from @p host
     * (or from any connected host when host is invalid), most free
     * space, no replica of this template yet, not already in flight.
     */
    DatastoreId pickTargetDatastore(TemplateId tmpl, HostId host) const;

    /** Pick the least-subscribed existing replica as a copy source. */
    std::optional<BaseReplica> pickSource(TemplateId tmpl) const;

    /** The least committed connected host, out of maintenance, that
     *  reaches @p ds: it runs the copy. */
    HostId pickWorkerHost(DatastoreId ds);

    /** Issue the ReplicateBaseDisk op. */
    void requestReplica(TemplateId tmpl, DatastoreId dst);

    void scheduleNextScan();

    ManagementServer &srv;
    Inventory &inv;
    PlacementEngine &placement;
    PoolConfig cfg;

    std::map<TemplateId, std::vector<BaseReplica>> pools;

    /** In-flight replications and the deploys waiting on them. */
    std::map<std::pair<TemplateId, DatastoreId>, std::vector<EnsureCb>>
        inflight;

    std::uint64_t repl_issued = 0;
    std::uint64_t repl_ok = 0;
    std::uint64_t repl_failed = 0;
    bool maintenance_running = false;
};

} // namespace vcp

#endif // VCP_CLOUD_POOL_MANAGER_HH

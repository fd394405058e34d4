/**
 * @file
 * The cloud director: the self-service orchestration layer that sits
 * on top of the management control plane (the vCloud-Director role).
 *
 * It owns tenants, the template catalog, vApps and their leases, and
 * the base-disk pool, and it turns one user-visible action ("deploy a
 * vApp") into the burst of primitive management operations the paper
 * characterizes: placement, clone per VM, power-on per VM, and — at
 * teardown — power-off and destroy per VM.
 */

#ifndef VCP_CLOUD_CLOUD_DIRECTOR_HH
#define VCP_CLOUD_CLOUD_DIRECTOR_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/catalog.hh"
#include "cloud/lease_manager.hh"
#include "cloud/placement.hh"
#include "cloud/pool_manager.hh"
#include "cloud/tenant.hh"
#include "cloud/vapp.hh"
#include "controlplane/management_server.hh"
#include "stats/timeseries.hh"

namespace vcp {

/** Cloud-level policy knobs. */
struct CloudDirectorConfig
{
    /** Deploys use linked clones (the bandwidth-conserving path). */
    bool use_linked_clones = true;

    /** Base-disk pool policy. */
    PoolConfig pool;

    /** Per-VM clone retries before the deploy is declared failed. */
    int clone_retries = 1;
};

/** A self-service deployment request. */
struct DeployRequest
{
    TenantId tenant;
    TemplateId tmpl;

    /** Override the template's clone mechanism; unset uses the
     *  director-wide default. */
    std::optional<bool> linked;

    /** Lease length; 0 uses the template default, < 0 disables. */
    SimDuration lease = 0;

    /** Control-plane scheduling priority for this deploy's ops. */
    int priority = 0;
};

/** Callback fired when a vApp reaches a terminal deploy state. */
using DeployCallback = std::function<void(const VApp &)>;

/** Callback fired when a vApp is fully destroyed. */
using UndeployCallback = std::function<void(const VApp &)>;

/** The self-service cloud orchestration engine. */
class CloudDirector
{
  public:
    CloudDirector(ManagementServer &server,
                  const CloudDirectorConfig &cfg = {});

    CloudDirector(const CloudDirector &) = delete;
    CloudDirector &operator=(const CloudDirector &) = delete;

    /** @{ Tenant management. */
    TenantId addTenant(const TenantConfig &cfg);
    Tenant &tenant(TenantId id);
    const Tenant &tenant(TenantId id) const;
    std::vector<TenantId> tenantIds() const;
    /** @} */

    /**
     * Create a golden-master template: an inventory template VM with
     * one thin flat disk, registered in the catalog and seeded into
     * the base-disk pool.
     *
     * @param name catalog name.
     * @param ds datastore holding the master disk.
     * @param disk_capacity logical disk size.
     * @param fill_fraction fraction of capacity actually allocated
     *        (what a full clone must copy).
     * @param vcpus, memory shape of deployed VMs.
     * @param vm_count VMs per vApp deploy.
     * @param lease default vApp lease.
     */
    TemplateId createTemplate(const std::string &name, DatastoreId ds,
                              Bytes disk_capacity, double fill_fraction,
                              int vcpus, Bytes memory, int vm_count,
                              SimDuration lease);

    /**
     * Deploy a vApp.  @p cb fires when the deploy reaches Deployed or
     * DeployFailed (failed deploys are cleaned up automatically).
     * @return the new vApp id (valid even if the deploy later fails),
     * or an invalid id if the request was rejected synchronously
     * (unknown tenant/template or quota).
     */
    VAppId deployVApp(const DeployRequest &req, DeployCallback cb = {});

    /**
     * Tear a deployed vApp down (power off + destroy each VM).
     * @return false if the vApp is not in a state that can undeploy.
     */
    bool undeployVApp(VAppId id, UndeployCallback cb = {});

    /**
     * Maintenance workflow: live-migrate every powered-on VM off the
     * host, then enter maintenance mode.  @p done receives success.
     */
    void enterMaintenance(HostId host, std::function<void(bool)> done);

    /** @{ vApp access. */
    bool hasVApp(VAppId id) const { return vapps.count(id) > 0; }
    const VApp &vapp(VAppId id) const;
    std::size_t numVApps() const { return vapps.size(); }

    /**
     * The Deployed vApps, in the order they reached Deployed.  A vApp
     * joins when its deploy succeeds and leaves when its undeploy
     * starts (the only way out of Deployed); the others keep their
     * order.  Failed deploys never appear.
     */
    const std::vector<VAppId> &deployedVApps() const { return deployed; }
    /** @} */

    /** Shard the director's workflow events execute on. */
    ShardId shard() const { return sim.shardId(); }

    /** @{ Component access. */
    Catalog &catalog() { return catalog_; }
    BaseDiskPoolManager &pool() { return pool_mgr; }
    PlacementEngine &placement() { return placer; }
    LeaseManager &leases() { return lease_mgr; }
    ManagementServer &server() { return srv; }
    const CloudDirectorConfig &config() const { return cfg; }
    /** @} */

    /** @{ Lifetime counters. */
    std::uint64_t deploysRequested() const { return deploys_req; }
    std::uint64_t deploysSucceeded() const { return deploys_ok; }
    std::uint64_t deploysFailed() const { return deploys_fail; }
    std::uint64_t undeploysCompleted() const { return undeploys; }
    std::uint64_t vmsProvisioned() const { return vms_provisioned; }
    std::uint64_t vmsDestroyed() const { return vms_destroyed; }
    /** @} */

    /**
     * Optional churn hooks: record each VM provisioned/destroyed
     * into caller-owned time series (for the rate-over-time figure).
     */
    void
    setChurnSeries(TimeSeries *provisioned, TimeSeries *destroyed)
    {
        provision_series = provisioned;
        destroy_series = destroyed;
    }

    /**
     * Attach a span tracer: deploys and undeploys then record
     * vApp-scoped spans, and placement failures / base-disk pool
     * stalls record instant markers.  Pass nullptr to detach.
     */
    void attachTracer(SpanTracer *t);

  private:
    struct DeployCtx;
    using DeployCtxPtr = std::shared_ptr<DeployCtx>;
    struct UndeployCtx;
    using UndeployCtxPtr = std::shared_ptr<UndeployCtx>;

    /** Provision one member VM (with retries). */
    void provisionOne(const DeployCtxPtr &ctx, int vm_index,
                      int attempt);

    /** Per-VM outcome; completes the vApp when all are in. */
    void vmDone(const DeployCtxPtr &ctx, bool ok);

    /** Final transition to Deployed / DeployFailed. */
    void finishDeploy(const DeployCtxPtr &ctx);

    /**
     * Issue the clone op for one VM.  @p vcpus / @p memory is the
     * placement footprint to resolve when the outcome is known.
     */
    void issueClone(const DeployCtxPtr &ctx, int vm_index, int attempt,
                    HostId host, DatastoreId ds, DiskId base,
                    int vcpus, Bytes memory);

    void onLeaseExpired(VAppId id);

    /** Tear one VM down (power-off + destroy, with retries). */
    void undeployOneVm(const UndeployCtxPtr &ctx, VmId vm,
                       int attempt);

    /** Per-VM teardown outcome; completes the vApp at zero. */
    void undeployVmDone(const UndeployCtxPtr &ctx, bool destroyed);

    /** Final transition to Destroyed + quota refund. */
    void finishUndeploy(const UndeployCtxPtr &ctx);

    ManagementServer &srv;
    Inventory &inv;
    Simulator &sim;
    StatRegistry &stats;
    CloudDirectorConfig cfg;

    Catalog catalog_;
    BaseDiskPoolManager pool_mgr;
    PlacementEngine placer;
    LeaseManager lease_mgr;

    std::map<TenantId, std::unique_ptr<Tenant>> tenants;
    std::map<VAppId, VApp> vapps;
    std::vector<VAppId> deployed;
    std::map<VAppId, DeployCallback> deploy_cbs;

    std::int64_t next_cloud_id = 1;
    std::uint64_t deploys_req = 0;
    std::uint64_t deploys_ok = 0;
    std::uint64_t deploys_fail = 0;
    std::uint64_t undeploys = 0;
    std::uint64_t vms_provisioned = 0;
    std::uint64_t vms_destroyed = 0;

    TimeSeries *provision_series = nullptr;
    TimeSeries *destroy_series = nullptr;

    /** @{ Span tracer and its pre-interned names. */
    SpanTracer *tracer_ = nullptr;
    std::uint16_t deploy_name_ = 0;
    std::uint16_t undeploy_name_ = 0;
    std::uint16_t place_fail_name_ = 0;
    std::uint16_t pool_stall_name_ = 0;
    /** @} */

    /** @{ Resolve-once stat handles (filled via StatRegistry's
     *  slot-taking overloads; lazy so the dumped name set matches
     *  per-event lookups). */
    Counter *deploys_req_stat = nullptr;
    Counter *deploys_rejected_stat = nullptr;
    Counter *quota_rejected_stat = nullptr;
    Counter *placement_fail_stat = nullptr;
    Counter *pool_stall_stat = nullptr;
    Counter *base_unavail_stat = nullptr;
    Counter *clone_retry_stat = nullptr;
    Counter *clone_fail_stat = nullptr;
    Counter *vms_provisioned_stat = nullptr;
    Counter *poweron_fail_stat = nullptr;
    Counter *deploys_ok_stat = nullptr;
    Counter *deploys_fail_stat = nullptr;
    Counter *undeploys_stat = nullptr;
    Counter *vms_destroyed_stat = nullptr;
    Counter *undeploy_leak_stat = nullptr;
    Counter *lease_exp_stat = nullptr;
    Histogram *deploy_latency_stat = nullptr;
    Histogram *undeploy_latency_stat = nullptr;
    /** @} */
};

} // namespace vcp

#endif // VCP_CLOUD_CLOUD_DIRECTOR_HH

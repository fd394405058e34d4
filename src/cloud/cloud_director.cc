#include "cloud/cloud_director.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace vcp {

/** Tracks one deploy across its member-VM provisioning fan-out. */
struct CloudDirector::DeployCtx
{
    VAppId vapp;
    TenantId tenant;
    TemplateId tmpl;
    bool linked = true;
    int priority = 0;
    SimDuration lease = 0;
    int pending = 0;
    bool any_failed = false;
};

CloudDirector::CloudDirector(ManagementServer &server,
                             const CloudDirectorConfig &cfg_)
    : srv(server), inv(server.inventory()), sim(server.simulator()),
      stats(server.statRegistry()), cfg(cfg_),
      pool_mgr(server, cfg_.pool, placer),
      placer(server.inventory(), &pool_mgr),
      lease_mgr(server.simulator(),
                [this](VAppId id) { onLeaseExpired(id); })
{
    if (cfg.pool.aggressive)
        pool_mgr.startMaintenance();
}

TenantId
CloudDirector::addTenant(const TenantConfig &tcfg)
{
    TenantId id(next_cloud_id++);
    tenants.emplace(id, std::make_unique<Tenant>(id, tcfg));
    return id;
}

Tenant &
CloudDirector::tenant(TenantId id)
{
    auto it = tenants.find(id);
    if (it == tenants.end())
        panic("CloudDirector: no such tenant %lld",
              static_cast<long long>(id.value));
    return *it->second;
}

const Tenant &
CloudDirector::tenant(TenantId id) const
{
    auto it = tenants.find(id);
    if (it == tenants.end())
        panic("CloudDirector: no such tenant %lld",
              static_cast<long long>(id.value));
    return *it->second;
}

std::vector<TenantId>
CloudDirector::tenantIds() const
{
    std::vector<TenantId> out;
    out.reserve(tenants.size());
    for (const auto &kv : tenants)
        out.push_back(kv.first);
    return out;
}

TemplateId
CloudDirector::createTemplate(const std::string &name, DatastoreId ds,
                              Bytes disk_capacity, double fill_fraction,
                              int vcpus, Bytes memory, int vm_count,
                              SimDuration lease)
{
    if (fill_fraction <= 0.0 || fill_fraction > 1.0)
        fatal("createTemplate %s: fill_fraction must be in (0,1]",
              name.c_str());

    VmConfig vc;
    vc.name = name;
    vc.vcpus = vcpus;
    vc.memory = memory;
    vc.is_template = true;
    VmId master = inv.createVm(vc);

    DiskConfig dc;
    dc.kind = DiskKind::Flat;
    dc.datastore = ds;
    dc.capacity = disk_capacity;
    dc.initial_allocation = static_cast<Bytes>(
        static_cast<double>(disk_capacity) * fill_fraction);
    dc.owner = master;
    DiskId disk = inv.createDisk(dc);
    if (!disk.valid())
        fatal("createTemplate %s: datastore out of space",
              name.c_str());
    inv.vm(master).disks.push_back(disk);

    TemplateId id(next_cloud_id++);
    VAppTemplate tmpl;
    tmpl.id = id;
    tmpl.name = name;
    tmpl.source_vm = master;
    tmpl.vm_count = vm_count;
    tmpl.default_lease = lease;
    catalog_.add(tmpl);
    pool_mgr.registerTemplate(id, disk);
    return id;
}

const VApp &
CloudDirector::vapp(VAppId id) const
{
    auto it = vapps.find(id);
    if (it == vapps.end())
        panic("CloudDirector: no such vApp %lld",
              static_cast<long long>(id.value));
    return it->second;
}

VAppId
CloudDirector::deployVApp(const DeployRequest &req, DeployCallback cb)
{
    ++deploys_req;
    stats.counter(deploys_req_stat, "cloud.deploys.requested").inc();

    auto tit = tenants.find(req.tenant);
    if (tit == tenants.end() || !catalog_.has(req.tmpl)) {
        ++deploys_fail;
        stats.counter(deploys_rejected_stat, "cloud.deploys.rejected").inc();
        return VAppId();
    }
    Tenant &ten = *tit->second;
    const VAppTemplate &tmpl = catalog_.get(req.tmpl);
    ten.noteDeployRequested();

    if (!ten.withinQuota(tmpl.vm_count)) {
        ten.noteDeployFailed();
        ++deploys_fail;
        stats.counter(quota_rejected_stat,
                      "cloud.deploys.quota_rejected").inc();
        return VAppId();
    }
    ten.chargeVms(tmpl.vm_count);

    VAppId id(next_cloud_id++);
    VApp va;
    va.id = id;
    va.tenant = req.tenant;
    va.tmpl = req.tmpl;
    va.state = VAppState::Deploying;
    va.requested_at = sim.now();
    vapps.emplace(id, va);
    if (cb)
        deploy_cbs.emplace(id, std::move(cb));

    auto ctx = std::make_shared<DeployCtx>();
    ctx->vapp = id;
    ctx->tenant = req.tenant;
    ctx->tmpl = req.tmpl;
    ctx->linked = req.linked.value_or(cfg.use_linked_clones);
    ctx->priority = req.priority;
    ctx->lease = (req.lease == 0) ? tmpl.default_lease
                 : (req.lease < 0) ? 0
                                   : req.lease;
    ctx->pending = tmpl.vm_count;

    for (int i = 0; i < tmpl.vm_count; ++i)
        provisionOne(ctx, i, 0);
    return id;
}

void
CloudDirector::provisionOne(const DeployCtxPtr &ctx, int vm_index,
                            int attempt)
{
    const VAppTemplate &tmpl = catalog_.get(ctx->tmpl);
    const Vm &master = inv.vm(tmpl.source_vm);

    Bytes disk_need = 0;
    for (DiskId d : master.disks) {
        const VirtualDisk &md = inv.disk(d);
        disk_need += ctx->linked
            ? srv.costModel().linkedDeltaAllocation(md.capacity)
            : md.capacity;
    }

    PlacementQuery q;
    q.vcpus = master.vcpus;
    q.memory = master.memory;
    q.disk_need = disk_need;
    q.tmpl = ctx->tmpl;
    q.linked = ctx->linked;

    Placement p = placer.place(q);
    if (!p.ok) {
        stats.counter(placement_fail_stat, "cloud.placement_failures").inc();
        if (VCP_TRACER_ON(tracer_))
            tracer_->recordInstant(place_fail_name_, ctx->vapp.value,
                                   sim.now());
        vmDone(ctx, false);
        return;
    }
    int fp_vcpus = q.vcpus;
    Bytes fp_memory = q.memory;

    if (ctx->linked && !p.base_found) {
        // Lazy reconfiguration: the deploy stalls while the pool
        // replicates a base disk within reach of the chosen host.
        stats.counter(pool_stall_stat, "cloud.deploy_pool_stalls").inc();
        if (VCP_TRACER_ON(tracer_))
            tracer_->recordInstant(pool_stall_name_, ctx->vapp.value,
                                   sim.now());
        pool_mgr.ensureReplica(
            ctx->tmpl, p.host, disk_need,
            [this, ctx, vm_index, attempt, p, fp_vcpus,
             fp_memory](std::optional<BaseReplica> r) {
                if (!r) {
                    stats.counter(base_unavail_stat,
                                  "cloud.base_disk_unavailable").inc();
                    placer.resolve(p.host, fp_vcpus, fp_memory);
                    vmDone(ctx, false);
                    return;
                }
                issueClone(ctx, vm_index, attempt, p.host,
                           r->datastore, r->disk, fp_vcpus,
                           fp_memory);
            });
        return;
    }

    DiskId base = ctx->linked ? p.base.disk : DiskId();
    issueClone(ctx, vm_index, attempt, p.host, p.datastore, base,
               fp_vcpus, fp_memory);
}

void
CloudDirector::issueClone(const DeployCtxPtr &ctx, int vm_index,
                          int attempt, HostId host, DatastoreId ds,
                          DiskId base, int vcpus, Bytes memory)
{
    const VAppTemplate &tmpl = catalog_.get(ctx->tmpl);

    OpRequest req;
    req.type = ctx->linked ? OpType::CloneLinked : OpType::CloneFull;
    req.vm = tmpl.source_vm;
    req.host = host;
    req.datastore = ds;
    req.tenant = ctx->tenant;
    req.base_disk = base;
    req.priority = ctx->priority;
    req.name = "vapp" + std::to_string(ctx->vapp.value) + "-vm" +
               std::to_string(vm_index);

    srv.submit(req, [this, ctx, vm_index, attempt, host, vcpus,
                     memory](const Task &t) {
        if (!t.succeeded()) {
            placer.resolve(host, vcpus, memory);
            if (attempt < cfg.clone_retries) {
                stats.counter(clone_retry_stat, "cloud.clone_retries").inc();
                provisionOne(ctx, vm_index, attempt + 1);
            } else {
                stats.counter(clone_fail_stat, "cloud.clone_failures").inc();
                vmDone(ctx, false);
            }
            return;
        }
        VmId new_vm = t.resultVm();
        auto vit = vapps.find(ctx->vapp);
        if (vit != vapps.end())
            vit->second.vms.push_back(new_vm);
        inv.vm(new_vm).vapp = ctx->vapp;
        ++vms_provisioned;
        stats.counter(vms_provisioned_stat, "cloud.vms.provisioned").inc();
        if (provision_series)
            provision_series->add(sim.now());

        OpRequest on;
        on.type = OpType::PowerOn;
        on.vm = new_vm;
        on.tenant = ctx->tenant;
        on.priority = ctx->priority;
        srv.submit(on, [this, ctx, host, vcpus,
                        memory](const Task &pt) {
            // The outcome is known: the pending footprint either
            // became a real commitment (power-on) or is moot.
            placer.resolve(host, vcpus, memory);
            if (!pt.succeeded())
                stats.counter(poweron_fail_stat,
                              "cloud.poweron_failures").inc();
            vmDone(ctx, pt.succeeded());
        });
    });
}

void
CloudDirector::attachTracer(SpanTracer *t)
{
    tracer_ = t;
    if (!t)
        return;
    deploy_name_ = t->intern("vapp.deploy");
    undeploy_name_ = t->intern("vapp.undeploy");
    place_fail_name_ = t->intern("placement-fail");
    pool_stall_name_ = t->intern("pool-stall");
}

void
CloudDirector::vmDone(const DeployCtxPtr &ctx, bool ok)
{
    if (!ok)
        ctx->any_failed = true;
    if (--ctx->pending == 0)
        finishDeploy(ctx);
}

void
CloudDirector::finishDeploy(const DeployCtxPtr &ctx)
{
    auto it = vapps.find(ctx->vapp);
    if (it == vapps.end())
        panic("CloudDirector: deploy finished for missing vApp");
    VApp &va = it->second;

    if (!ctx->any_failed) {
        va.state = VAppState::Deployed;
        va.deployed_at = sim.now();
        deployed.push_back(va.id);
        if (ctx->lease > 0) {
            va.lease_expiry = sim.now() + ctx->lease;
            lease_mgr.schedule(va.id, va.lease_expiry);
        }
        ++deploys_ok;
        tenant(ctx->tenant).noteDeploySucceeded();
        stats.counter(deploys_ok_stat, "cloud.deploys.succeeded").inc();
        stats.histogram(deploy_latency_stat, "cloud.deploy_latency_us",
                        1000.0, 1.2)
            .add(static_cast<double>(sim.now() - va.requested_at));
    } else {
        va.state = VAppState::DeployFailed;
        ++deploys_fail;
        tenant(ctx->tenant).noteDeployFailed();
        stats.counter(deploys_fail_stat, "cloud.deploys.failed").inc();
    }

    if (VCP_TRACER_ON(tracer_))
        tracer_->recordSpan(deploy_name_, va.id.value, va.requested_at,
                            sim.now() - va.requested_at);

    auto cbit = deploy_cbs.find(va.id);
    DeployCallback cb;
    if (cbit != deploy_cbs.end()) {
        cb = std::move(cbit->second);
        deploy_cbs.erase(cbit);
    }
    if (cb)
        cb(va);

    // Failed deploys are cleaned up automatically.
    if (va.state == VAppState::DeployFailed)
        undeployVApp(va.id);
}

/** Tracks one undeploy across its member-VM teardown fan-out. */
struct CloudDirector::UndeployCtx
{
    VAppId vapp;
    TenantId tenant;
    int vm_quota_charged = 0;
    int pending = 0;
    SimTime started = 0;
    UndeployCallback cb;
};

bool
CloudDirector::undeployVApp(VAppId id, UndeployCallback cb)
{
    auto it = vapps.find(id);
    if (it == vapps.end())
        return false;
    VApp &va = it->second;
    if (va.state != VAppState::Deployed &&
        va.state != VAppState::DeployFailed) {
        return false;
    }
    if (va.state == VAppState::Deployed) {
        // Erase, not swap-remove: the workload driver draws a rank
        // from this list, so the survivors must keep their order.
        deployed.erase(
            std::find(deployed.begin(), deployed.end(), id));
    }
    lease_mgr.cancel(id);
    va.state = VAppState::Undeploying;

    auto uctx = std::make_shared<UndeployCtx>();
    uctx->vapp = id;
    uctx->tenant = va.tenant;
    uctx->vm_quota_charged = catalog_.get(va.tmpl).vm_count;
    uctx->pending = static_cast<int>(va.vms.size());
    uctx->started = sim.now();
    uctx->cb = std::move(cb);

    if (uctx->pending == 0) {
        finishUndeploy(uctx);
        return true;
    }
    for (VmId vm_id : va.vms)
        undeployOneVm(uctx, vm_id, 0);
    return true;
}

void
CloudDirector::finishUndeploy(const UndeployCtxPtr &uctx)
{
    auto vit = vapps.find(uctx->vapp);
    if (vit == vapps.end())
        panic("CloudDirector: undeploy of missing vApp");
    VApp &v = vit->second;
    v.state = VAppState::Destroyed;
    v.destroyed_at = sim.now();
    tenant(uctx->tenant).refundVms(uctx->vm_quota_charged);
    ++undeploys;
    stats.counter(undeploys_stat, "cloud.undeploys").inc();
    stats.histogram(undeploy_latency_stat,
                    "cloud.undeploy_latency_us", 1000.0, 1.2)
        .add(static_cast<double>(sim.now() - uctx->started));
    if (VCP_TRACER_ON(tracer_))
        tracer_->recordSpan(undeploy_name_, v.id.value, uctx->started,
                            sim.now() - uctx->started);
    if (uctx->cb)
        uctx->cb(v);
}

void
CloudDirector::undeployVmDone(const UndeployCtxPtr &uctx,
                              bool destroyed)
{
    if (destroyed) {
        ++vms_destroyed;
        stats.counter(vms_destroyed_stat, "cloud.vms.destroyed").inc();
        if (destroy_series)
            destroy_series->add(sim.now());
    }
    if (--uctx->pending == 0)
        finishUndeploy(uctx);
}

/*
 * Tear one VM down, retrying the power-off + destroy sequence:
 * user-issued operations (a power cycle's power-on, say) can race
 * ahead of the undeploy and flip the VM back on between the state
 * check and the destroy.
 */
void
CloudDirector::undeployOneVm(const UndeployCtxPtr &uctx, VmId vm_id,
                             int attempt)
{
    if (!inv.hasVm(vm_id)) {
        undeployVmDone(uctx, false);
        return;
    }
    auto destroy = [this, uctx, vm_id, attempt]() {
        OpRequest del;
        del.type = OpType::Destroy;
        del.vm = vm_id;
        del.tenant = uctx->tenant;
        srv.submit(del, [this, uctx, vm_id,
                         attempt](const Task &t) {
            if (t.succeeded()) {
                undeployVmDone(uctx, true);
            } else if (attempt < 4) {
                undeployOneVm(uctx, vm_id, attempt + 1);
            } else {
                stats.counter(undeploy_leak_stat,
                              "cloud.undeploy_leaks").inc();
                undeployVmDone(uctx, false);
            }
        });
    };
    PowerState ps = inv.vm(vm_id).powerState();
    if (ps == PowerState::PoweredOn || ps == PowerState::PoweringOn) {
        OpRequest off;
        off.type = OpType::PowerOff;
        off.vm = vm_id;
        off.tenant = uctx->tenant;
        srv.submit(off, [destroy](const Task &) {
            // Destroy regardless; if the power-off lost a race the
            // destroy fails and we come back around.
            destroy();
        });
    } else {
        destroy();
    }
}

void
CloudDirector::onLeaseExpired(VAppId id)
{
    stats.counter(lease_exp_stat, "cloud.lease_expirations").inc();
    undeployVApp(id);
}

void
CloudDirector::enterMaintenance(HostId host,
                                std::function<void(bool)> done)
{
    if (!inv.hasHost(host)) {
        done(false);
        return;
    }
    std::vector<VmId> to_move;
    for (VmId v : inv.host(host).vms()) {
        if (inv.vm(v).powerState() == PowerState::PoweredOn)
            to_move.push_back(v);
    }
    std::sort(to_move.begin(), to_move.end());

    struct EvacCtx
    {
        int pending = 0;
        bool ok = true;
        std::function<void(bool)> done;
    };
    auto ectx = std::make_shared<EvacCtx>();
    ectx->pending = static_cast<int>(to_move.size());
    ectx->done = std::move(done);

    auto finish_evac = [this, ectx, host]() {
        if (!ectx->ok) {
            ectx->done(false);
            return;
        }
        OpRequest mm;
        mm.type = OpType::EnterMaintenance;
        mm.host = host;
        srv.submit(mm, [ectx](const Task &t) {
            ectx->done(t.succeeded());
        });
    };

    if (to_move.empty()) {
        finish_evac();
        return;
    }

    for (VmId v : to_move) {
        HostId best = placer.migrationTarget(inv.vm(v), host);
        if (!best.valid()) {
            ectx->ok = false;
            if (--ectx->pending == 0)
                finish_evac();
            continue;
        }
        OpRequest mig;
        mig.type = OpType::Migrate;
        mig.vm = v;
        mig.host = best;
        srv.submit(mig, [this, ectx, finish_evac](const Task &t) {
            if (!t.succeeded())
                ectx->ok = false;
            if (--ectx->pending == 0)
                finish_evac();
        });
    }
}

} // namespace vcp

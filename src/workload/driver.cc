#include "workload/driver.hh"

#include "sim/logging.hh"

namespace vcp {

WorkloadDriver::WorkloadDriver(CloudDirector &cloud_,
                               const WorkloadConfig &cfg_, Rng rng_)
    : cloud(cloud_), srv(cloud_.server()), inv(srv.inventory()),
      sim(srv.simulator()), cfg(cfg_), rng(rng_),
      arrivals(cfg_.arrival, rng_.fork()),
      action_sampler(std::vector<double>(cfg_.action_weights.begin(),
                                         cfg_.action_weights.end()))
{
    tenant_ids = cloud.tenantIds();
    template_ids = cloud.catalog().ids();
    if (cfg.record_ops) {
        srv.setTaskObserver(
            [this](const Task &t) { op_trace.add(t); });
    }
}

void
WorkloadDriver::start()
{
    if (started)
        panic("WorkloadDriver::start called twice");
    if (tenant_ids.empty() || template_ids.empty())
        fatal("WorkloadDriver: need at least one tenant and template");
    started = true;
    tenant_sampler = std::make_unique<ZipfSampler>(
        static_cast<std::int64_t>(tenant_ids.size()),
        cfg.tenant_zipf_s);
    end_time = sim.now() + cfg.duration;
    scheduleNext();
}

void
WorkloadDriver::scheduleNext()
{
    SimDuration delay = arrivals.nextDelay(sim.now());
    if (sim.now() + delay >= end_time)
        return;
    sim.schedule(delay, [this]() { fire(); });
}

void
WorkloadDriver::fire()
{
    CloudAction a = static_cast<CloudAction>(action_sampler(rng));
    int tenant_idx = static_cast<int>((*tenant_sampler)(rng));
    int template_idx = static_cast<int>(
        rng.uniformInt(0,
                       static_cast<std::int64_t>(template_ids.size()) -
                           1));
    issue(a, tenant_idx, template_idx);
    scheduleNext();
}

void
WorkloadDriver::issue(CloudAction a, int tenant_idx, int template_idx)
{
    ActionRecord rec;
    rec.time = sim.now();
    rec.action = a;
    rec.tenant_index = tenant_idx;
    rec.template_index = template_idx;
    action_trace.add(rec);

    bool ok = false;
    switch (a) {
      case CloudAction::Deploy:
        ok = doDeploy(tenant_idx, template_idx);
        break;
      case CloudAction::EarlyUndeploy:
        ok = doEarlyUndeploy();
        break;
      case CloudAction::PowerCycle:
        ok = doPowerCycle();
        break;
      case CloudAction::Reconfigure:
        ok = doReconfigure();
        break;
      case CloudAction::Snapshot:
        ok = doSnapshot();
        break;
      case CloudAction::RemoveSnapshot:
        ok = doRemoveSnapshot();
        break;
      case CloudAction::AdminMigrate:
        ok = doAdminMigrate();
        break;
      case CloudAction::NumActions:
        panic("WorkloadDriver: bad action");
    }
    if (ok)
        issued[static_cast<std::size_t>(a)] += 1;
    else
        ++skipped_count;
}

VAppId
WorkloadDriver::pickLiveVApp()
{
    const std::vector<VAppId> &live = cloud.deployedVApps();
    if (live.empty())
        return VAppId();
    std::size_t i = static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(live.size()) - 1));
    return live[i];
}

VmId
WorkloadDriver::pickLiveVm(bool require_powered_on)
{
    // Bounded retries: the live set can contain vApps whose VMs are
    // transiently in the wrong state.
    for (int tries = 0; tries < 8; ++tries) {
        VAppId va = pickLiveVApp();
        if (!va.valid())
            return VmId();
        const VApp &v = cloud.vapp(va);
        if (v.vms.empty())
            continue;
        std::size_t i = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(v.vms.size()) - 1));
        VmId vm = v.vms[i];
        if (!inv.hasVm(vm))
            continue;
        if (require_powered_on &&
            inv.vm(vm).powerState() != PowerState::PoweredOn) {
            continue;
        }
        return vm;
    }
    return VmId();
}

bool
WorkloadDriver::doDeploy(int tenant_idx, int template_idx)
{
    DeployRequest req;
    req.tenant = tenant_ids[static_cast<std::size_t>(tenant_idx) %
                            tenant_ids.size()];
    req.tmpl = template_ids[static_cast<std::size_t>(template_idx) %
                            template_ids.size()];
    req.priority = cfg.priority;
    return cloud.deployVApp(req).valid();
}

bool
WorkloadDriver::doEarlyUndeploy()
{
    VAppId va = pickLiveVApp();
    if (!va.valid())
        return false;
    return cloud.undeployVApp(va);
}

bool
WorkloadDriver::doPowerCycle()
{
    VmId vm = pickLiveVm(/*require_powered_on=*/true);
    if (!vm.valid())
        return false;
    OpRequest off;
    off.type = OpType::PowerOff;
    off.vm = vm;
    off.tenant = inv.vm(vm).tenant;
    off.priority = cfg.priority;
    srv.submit(off, [this, vm](const Task &t) {
        if (!t.succeeded())
            return;
        if (!inv.hasVm(vm))
            return;
        OpRequest on;
        on.type = OpType::PowerOn;
        on.vm = vm;
        on.tenant = inv.vm(vm).tenant;
        on.priority = cfg.priority;
        srv.submit(on);
    });
    return true;
}

bool
WorkloadDriver::doReconfigure()
{
    VmId vm = pickLiveVm(/*require_powered_on=*/false);
    if (!vm.valid())
        return false;
    const Vm &v = inv.vm(vm);
    OpRequest req;
    req.type = OpType::Reconfigure;
    req.vm = vm;
    req.tenant = v.tenant;
    req.priority = cfg.priority;
    req.vcpus = v.vcpus;
    // Resize memory by 0.5x .. 2x.
    double factor = rng.uniform(0.5, 2.0);
    req.memory = static_cast<Bytes>(
        static_cast<double>(v.memory) * factor);
    srv.submit(req);
    return true;
}

bool
WorkloadDriver::doSnapshot()
{
    VmId vm = pickLiveVm(/*require_powered_on=*/false);
    if (!vm.valid())
        return false;
    OpRequest req;
    req.type = OpType::Snapshot;
    req.vm = vm;
    req.tenant = inv.vm(vm).tenant;
    req.priority = cfg.priority;
    srv.submit(req);
    return true;
}

bool
WorkloadDriver::doRemoveSnapshot()
{
    // Look for a VM whose newest disk is a snapshot delta.
    for (int tries = 0; tries < 8; ++tries) {
        VmId vm = pickLiveVm(/*require_powered_on=*/false);
        if (!vm.valid())
            return false;
        const Vm &v = inv.vm(vm);
        if (v.disks.empty() ||
            inv.disk(v.disks.back()).kind != DiskKind::SnapshotDelta) {
            continue;
        }
        OpRequest req;
        req.type = OpType::RemoveSnapshot;
        req.vm = vm;
        req.tenant = v.tenant;
        req.priority = cfg.priority;
        srv.submit(req);
        return true;
    }
    return false;
}

bool
WorkloadDriver::doAdminMigrate()
{
    VmId vm = pickLiveVm(/*require_powered_on=*/true);
    if (!vm.valid())
        return false;
    const Vm &v = inv.vm(vm);
    HostId best = cloud.placement().migrationTarget(v, v.host);
    if (!best.valid())
        return false;

    OpRequest req;
    req.type = OpType::Migrate;
    req.vm = vm;
    req.host = best;
    req.tenant = v.tenant;
    req.priority = cfg.priority;
    srv.submit(req);
    return true;
}

} // namespace vcp

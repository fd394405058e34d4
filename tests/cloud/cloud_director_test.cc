/**
 * @file
 * Tests for the cloud director: deploy/undeploy workflows, quota
 * enforcement, failure cleanup, leases, churn accounting, and the
 * maintenance-evacuation workflow.
 */

#include "cloud_fixture.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"

namespace vcp {
namespace {

using DirectorTest = CloudFixture;

TEST_F(DirectorTest, DeployCreatesPoweredOnVms)
{
    auto va = deploy(tenant0());
    ASSERT_TRUE(va.has_value());
    EXPECT_EQ(va->state, VAppState::Deployed);
    ASSERT_EQ(va->vms.size(), 2u); // template vm_count = 2
    for (VmId vm : va->vms) {
        EXPECT_EQ(inv().vm(vm).powerState(), PowerState::PoweredOn);
        EXPECT_EQ(inv().vm(vm).tenant, tenant0());
        EXPECT_EQ(inv().vm(vm).vapp, va->id);
        // Linked clone: delta disk backed by the pool seed.
        const VirtualDisk &d = inv().disk(inv().vm(vm).disks[0]);
        EXPECT_EQ(d.kind, DiskKind::LinkedCloneDelta);
    }
    EXPECT_EQ(cloud().deploysSucceeded(), 1u);
    EXPECT_EQ(cloud().vmsProvisioned(), 2u);
    EXPECT_EQ(cloud().tenant(tenant0()).vmsInUse(), 2);
}

TEST_F(DirectorTest, FullCloneDeployMovesData)
{
    Bytes before = srv().bytesMoved();
    auto va = deploy(tenant0(), /*linked=*/false);
    ASSERT_TRUE(va.has_value());
    EXPECT_EQ(va->state, VAppState::Deployed);
    // Two full clones of a 4 GiB-allocated master.
    EXPECT_EQ(srv().bytesMoved() - before, 2 * gib(4));
}

TEST_F(DirectorTest, DeployUnknownTenantRejected)
{
    DeployRequest req;
    req.tenant = TenantId(999999);
    req.tmpl = tmpl();
    EXPECT_FALSE(cloud().deployVApp(req).valid());
    EXPECT_EQ(cloud().deploysFailed(), 1u);
}

TEST_F(DirectorTest, DeployUnknownTemplateRejected)
{
    DeployRequest req;
    req.tenant = tenant0();
    req.tmpl = TemplateId(999999);
    EXPECT_FALSE(cloud().deployVApp(req).valid());
}

TEST_F(DirectorTest, QuotaRejectsOverLimitDeploys)
{
    // Quota is 20 VMs; each deploy takes 2.
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(deploy(tenant0()).has_value());
    EXPECT_EQ(cloud().tenant(tenant0()).vmsInUse(), 20);
    auto over = deploy(tenant0());
    EXPECT_FALSE(over.has_value());
    EXPECT_EQ(cs->stats().counter("cloud.deploys.quota_rejected")
                  .value(),
              1u);
    // Another tenant is unaffected.
    EXPECT_TRUE(deploy(tenant1()).has_value());
}

TEST_F(DirectorTest, UndeployDestroysVmsAndRefundsQuota)
{
    auto va = deploy(tenant0());
    ASSERT_TRUE(va.has_value());
    std::vector<VmId> vms = va->vms;
    ASSERT_TRUE(undeploy(va->id));
    EXPECT_EQ(cloud().vapp(va->id).state, VAppState::Destroyed);
    for (VmId vm : vms)
        EXPECT_FALSE(inv().hasVm(vm));
    EXPECT_EQ(cloud().tenant(tenant0()).vmsInUse(), 0);
    EXPECT_EQ(cloud().vmsDestroyed(), 2u);
    EXPECT_EQ(cloud().undeploysCompleted(), 1u);
}

TEST_F(DirectorTest, UndeployReleasesBaseDiskRefs)
{
    auto va = deploy(tenant0());
    DiskId seed = cloud().pool().replicas(tmpl())[0].disk;
    EXPECT_EQ(inv().disk(seed).ref_count, 2);
    undeploy(va->id);
    EXPECT_EQ(inv().disk(seed).ref_count, 0);
}

TEST_F(DirectorTest, UndeployWrongStateRejected)
{
    auto va = deploy(tenant0());
    ASSERT_TRUE(undeploy(va->id));
    // Already destroyed.
    EXPECT_FALSE(cloud().undeployVApp(va->id));
    EXPECT_FALSE(cloud().undeployVApp(VAppId(424242)));
}

TEST_F(DirectorTest, LeaseExpiryUndeploysAutomatically)
{
    DeployRequest req;
    req.tenant = tenant0();
    req.tmpl = tmpl();
    req.lease = hours(2);
    std::optional<VApp> deployed;
    cloud().deployVApp(req, [&](const VApp &va) { deployed = va; });
    drain(); // deploy completes, lease armed
    ASSERT_TRUE(deployed.has_value());
    // The lease is armed when the deploy completes, i.e. a little
    // after the two-hour mark from the request.
    EXPECT_GE(deployed->lease_expiry, hours(2));
    EXPECT_LT(deployed->lease_expiry, hours(2) + minutes(10));
    EXPECT_EQ(cloud().leases().active(), 1u);
    sim().runUntil(hours(3));
    drain(); // drain the undeploy ops
    EXPECT_EQ(cloud().vapp(deployed->id).state, VAppState::Destroyed);
    EXPECT_EQ(cloud().leases().expirations(), 1u);
    EXPECT_EQ(cloud().tenant(tenant0()).vmsInUse(), 0);
}

TEST_F(DirectorTest, NegativeLeaseDisablesExpiry)
{
    DeployRequest req;
    req.tenant = tenant0();
    req.tmpl = tmpl();
    req.lease = -1;
    std::optional<VApp> deployed;
    cloud().deployVApp(req, [&](const VApp &va) { deployed = va; });
    drain();
    ASSERT_TRUE(deployed.has_value());
    EXPECT_EQ(deployed->lease_expiry, 0);
    EXPECT_EQ(cloud().leases().active(), 0u);
}

TEST_F(DirectorTest, FailedDeployCleansUpAndRefunds)
{
    // Exhaust datastore space so clones fail.
    for (DatastoreId ds : cs->datastoreIds())
        inv().datastore(ds).reserve(inv().datastore(ds).free());
    auto va = deploy(tenant0());
    ASSERT_TRUE(va.has_value());
    EXPECT_EQ(va->state, VAppState::DeployFailed);
    drain(); // automatic cleanup
    EXPECT_EQ(cloud().vapp(va->id).state, VAppState::Destroyed);
    EXPECT_EQ(cloud().tenant(tenant0()).vmsInUse(), 0);
    EXPECT_EQ(cloud().deploysFailed(), 1u);
    // No stray VM records beyond the golden master.
    EXPECT_EQ(inv().numVms(), 1u);
}

TEST_F(DirectorTest, LazyPoolReplicationUnblocksDeploys)
{
    // Saturate the seed replica; the next deploy must trigger a
    // replication and still succeed.
    DiskId seed = cloud().pool().replicas(tmpl())[0].disk;
    inv().disk(seed).ref_count =
        cloud().pool().config().max_clones_per_base;
    auto va = deploy(tenant0());
    ASSERT_TRUE(va.has_value());
    EXPECT_EQ(va->state, VAppState::Deployed);
    EXPECT_GE(cloud().pool().replicationsSucceeded(), 1u);
    EXPECT_EQ(cloud().pool().replicas(tmpl()).size(), 2u);
}

TEST_F(DirectorTest, ChurnSeriesRecordProvisioning)
{
    TimeSeries prov(hours(1)), destr(hours(1));
    cloud().setChurnSeries(&prov, &destr);
    auto va = deploy(tenant0());
    undeploy(va->id);
    EXPECT_EQ(prov.totalCount(), 2u);
    EXPECT_EQ(destr.totalCount(), 2u);
}

TEST_F(DirectorTest, DeployLatencyHistogramPopulated)
{
    deploy(tenant0());
    EXPECT_EQ(
        cs->stats().histogram("cloud.deploy_latency_us").count(),
        1u);
    EXPECT_GT(cs->stats().histogram("cloud.deploy_latency_us").mean(),
              0.0);
}

TEST_F(DirectorTest, DeployedListKeepsTheOrderVAppsReachedDeployed)
{
    // The full clone copies 4 GiB per VM; the linked clones behind it
    // copy nothing and reach Deployed first.
    std::vector<VAppId> reached;
    auto cb = [&](const VApp &va) { reached.push_back(va.id); };
    DeployRequest req;
    req.tenant = tenant0();
    req.tmpl = tmpl();
    req.linked = false;
    VAppId full = cloud().deployVApp(req, cb);
    req.linked = true;
    cloud().deployVApp(req, cb);
    req.tenant = tenant1();
    cloud().deployVApp(req, cb);
    EXPECT_TRUE(cloud().deployedVApps().empty());
    drain();
    ASSERT_EQ(reached.size(), 3u);
    EXPECT_EQ(reached.back(), full);
    EXPECT_EQ(cloud().deployedVApps(), reached);
}

TEST_F(DirectorTest, FailedDeployNeverJoinsDeployedList)
{
    auto ok = deploy(tenant0());
    ASSERT_TRUE(ok.has_value());
    for (DatastoreId ds : cs->datastoreIds())
        inv().datastore(ds).reserve(inv().datastore(ds).free());
    DeployRequest req;
    req.tenant = tenant1();
    req.tmpl = tmpl();
    bool listed_at_finish = true;
    VAppId failed = cloud().deployVApp(req, [&](const VApp &va) {
        EXPECT_EQ(va.state, VAppState::DeployFailed);
        const std::vector<VAppId> &ids = cloud().deployedVApps();
        listed_at_finish =
            std::count(ids.begin(), ids.end(), va.id) > 0;
    });
    drain();
    EXPECT_FALSE(listed_at_finish);
    EXPECT_EQ(cloud().vapp(failed).state, VAppState::Destroyed);
    EXPECT_EQ(cloud().deployedVApps(), std::vector<VAppId>{ok->id});
}

TEST_F(DirectorTest, UndeployLeavesDeployedListWhenItStarts)
{
    std::vector<VAppId> ids;
    for (TenantId t : {tenant0(), tenant0(), tenant1(), tenant1()}) {
        auto va = deploy(t);
        ASSERT_TRUE(va.has_value());
        ids.push_back(va->id);
    }
    ASSERT_EQ(cloud().deployedVApps(), ids);

    // Out as soon as the undeploy starts, long before Destroyed; the
    // entries around the removed middle one keep their order.
    ASSERT_TRUE(cloud().undeployVApp(ids[1]));
    EXPECT_EQ(cloud().vapp(ids[1]).state, VAppState::Undeploying);
    std::vector<VAppId> rest = {ids[0], ids[2], ids[3]};
    EXPECT_EQ(cloud().deployedVApps(), rest);
    drain();
    EXPECT_EQ(cloud().vapp(ids[1]).state, VAppState::Destroyed);
    EXPECT_EQ(cloud().deployedVApps(), rest);
}

TEST_F(DirectorTest, LeaseExpiryLeavesDeployedListWhenUndeployStarts)
{
    DeployRequest req;
    req.tenant = tenant0();
    req.tmpl = tmpl();
    req.lease = hours(2);
    std::optional<VApp> leased;
    cloud().deployVApp(req, [&](const VApp &va) { leased = va; });
    auto kept = deploy(tenant1()); // drains; 8 h template lease
    ASSERT_TRUE(leased.has_value());
    ASSERT_TRUE(kept.has_value());
    std::vector<VAppId> both = {leased->id, kept->id};
    EXPECT_EQ(cloud().deployedVApps(), both);

    sim().runUntil(leased->lease_expiry);
    EXPECT_EQ(cloud().vapp(leased->id).state, VAppState::Undeploying);
    EXPECT_EQ(cloud().deployedVApps(), std::vector<VAppId>{kept->id});
}

TEST_F(DirectorTest, EnterMaintenanceEvacuatesVms)
{
    auto va = deploy(tenant0());
    ASSERT_TRUE(va.has_value());
    // Find a host with at least one powered-on VM.
    HostId victim;
    for (HostId h : cs->hostIds()) {
        if (inv().host(h).numVms() > 0) {
            victim = h;
            break;
        }
    }
    ASSERT_TRUE(victim.valid());
    std::optional<bool> result;
    cloud().enterMaintenance(victim, [&](bool ok) { result = ok; });
    drain();
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(*result);
    EXPECT_TRUE(inv().host(victim).inMaintenance());
    EXPECT_EQ(inv().host(victim).numVms(), 0u);
    // The vApp's VMs are all still powered on, elsewhere.
    for (VmId vm : va->vms) {
        EXPECT_EQ(inv().vm(vm).powerState(), PowerState::PoweredOn);
        EXPECT_NE(inv().vm(vm).host, victim);
    }
}

TEST_F(DirectorTest, EnterMaintenanceOfEmptyHostIsDirect)
{
    HostId empty;
    for (HostId h : cs->hostIds()) {
        if (inv().host(h).numVms() == 0) {
            empty = h;
            break;
        }
    }
    ASSERT_TRUE(empty.valid());
    std::optional<bool> result;
    cloud().enterMaintenance(empty, [&](bool ok) { result = ok; });
    drain();
    EXPECT_TRUE(result.value_or(false));
    EXPECT_TRUE(inv().host(empty).inMaintenance());
}

TEST_F(DirectorTest, EnterMaintenanceUnknownHostFails)
{
    std::optional<bool> result;
    cloud().enterMaintenance(HostId(999999),
                             [&](bool ok) { result = ok; });
    EXPECT_FALSE(result.value_or(true));
}

TEST_F(DirectorTest, CreateTemplateValidatesFill)
{
    EXPECT_THROW(cloud().createTemplate("bad", cs->datastoreIds()[0],
                                        gib(8), 0.0, 1, gib(2), 1,
                                        hours(1)),
                 FatalError);
    EXPECT_THROW(cloud().createTemplate("bad", cs->datastoreIds()[0],
                                        gib(8), 1.5, 1, gib(2), 1,
                                        hours(1)),
                 FatalError);
}

TEST_F(DirectorTest, UnknownTenantLookupPanics)
{
    EXPECT_THROW(cloud().tenant(TenantId(31337)), PanicError);
    EXPECT_THROW(cloud().vapp(VAppId(31337)), PanicError);
}

} // namespace
} // namespace vcp

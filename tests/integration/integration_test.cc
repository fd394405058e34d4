/**
 * @file
 * End-to-end integration tests: simulator-vs-analytic queueing
 * validation, the paper's linked-vs-full bottleneck shift, overload
 * behaviour, and conservation invariants under churn.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "analysis/bottleneck.hh"
#include "analysis/queueing.hh"
#include "cloud/ha_manager.hh"
#include "workload/chaos.hh"
#include "workload/profiles.hh"

namespace vcp {
namespace {

/**
 * T3 basis: a ServiceCenter under Poisson arrivals and exponential
 * service must reproduce analytic M/M/c waiting times.
 */
class MmcValidationTest
    : public ::testing::TestWithParam<std::tuple<int, double>>
{};

TEST_P(MmcValidationTest, SimMatchesErlangC)
{
    auto [servers, rho] = GetParam();
    Simulator sim(1234);
    ServiceCenter sc(sim, "mmc", servers);
    Rng rng(99);

    double mu = 1.0;                 // per-second service rate
    double lambda = rho * servers * mu;
    const int n = 60000;

    // Open-loop Poisson arrivals with exponential service times.
    SimTime t = 0;
    for (int i = 0; i < n; ++i) {
        t += seconds(rng.exponential(1.0 / lambda));
        SimDuration service = seconds(rng.exponential(1.0 / mu));
        sim.scheduleAt(t, [&sc, service] {
            sc.submit(service, [] {});
        });
    }
    sim.run();

    MmcResult analytic = mmcAnalysis(lambda, mu, servers);
    double sim_wq = sc.meanWait() / 1e6; // usec -> s
    // 5% of the mean sojourn or absolute 0.01 s, whichever is larger.
    double tol = std::max(0.08 * analytic.w, 0.01);
    EXPECT_NEAR(sim_wq, analytic.wq, tol)
        << "c=" << servers << " rho=" << rho;
    EXPECT_NEAR(sc.utilization(), rho, 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MmcValidationTest,
    ::testing::Values(std::make_tuple(1, 0.5),
                      std::make_tuple(1, 0.8),
                      std::make_tuple(4, 0.7),
                      std::make_tuple(8, 0.9)));

CloudSetupSpec
smallCloud(bool linked)
{
    CloudSetupSpec s;
    s.name = linked ? "small-linked" : "small-full";
    s.infra.hosts = 8;
    s.infra.host.cores = 16;
    s.infra.host.memory = gib(128);
    s.infra.datastores = 2;
    s.infra.ds_capacity = gib(2048);
    s.infra.ds_copy_bandwidth = 100.0 * 1024 * 1024;

    TenantConfig t;
    t.name = "org";
    t.vm_quota = 0;
    s.tenants.push_back(t);
    s.templates = {{"tmpl", gib(8), 0.5, 1, gib(1), 1, hours(24)}};
    s.director.use_linked_clones = linked;
    s.director.pool.max_clones_per_base = 1000;

    s.workload.duration = hours(2);
    s.workload.arrival.rate_per_hour = 120.0;
    // Deploy-only workload for a clean comparison.
    s.workload.action_weights = {1, 0, 0, 0, 0, 0, 0};
    return s;
}

TEST(IntegrationTest, LinkedClonesConserveBandwidth)
{
    CloudSimulation full(smallCloud(false), 5);
    CloudSimulation linked(smallCloud(true), 5);
    full.run();
    linked.run();

    ASSERT_GT(full.cloud().vmsProvisioned(), 50u);
    ASSERT_GT(linked.cloud().vmsProvisioned(), 50u);
    // The paper's premise: linked clones slash data movement.
    EXPECT_GT(full.server().bytesMoved(),
              50 * linked.server().bytesMoved() + 1);
    // And cut provisioning latency by a large factor.
    double full_lat =
        full.server().latencyHistogram(OpType::CloneFull).mean();
    double linked_lat =
        linked.server().latencyHistogram(OpType::CloneLinked).mean();
    EXPECT_GT(full_lat, 4.0 * linked_lat);
}

TEST(IntegrationTest, FullClonesAreDataPlaneLimitedUnderStorm)
{
    // Overdrive a full-clone cloud: the datastore pipes should be
    // the busiest resource.
    CloudSetupSpec spec = smallCloud(false);
    spec.workload.arrival.rate_per_hour = 600.0;
    spec.workload.duration = hours(1);
    CloudSimulation cs(spec, 5);
    cs.run();
    auto utils = collectUtilizations(cs.server());
    double pipe_max = 0.0;
    for (const auto &u : utils) {
        if (u.name == "datastore-pipes(max)")
            pipe_max = u.utilization;
    }
    EXPECT_GT(pipe_max, 0.8);
}

TEST(IntegrationTest, LinkedClonesAreControlPlaneLimitedUnderStorm)
{
    // Same storm with linked clones: data plane nearly idle, and
    // the binding resource is a control-plane one.
    CloudSetupSpec spec = smallCloud(true);
    spec.workload.arrival.rate_per_hour = 2000.0;
    spec.workload.duration = hours(1);
    spec.server.dispatch_width = 16;
    CloudSimulation cs(spec, 5);
    cs.run();
    auto utils = collectUtilizations(cs.server());
    EXPECT_TRUE(bottleneckOf(utils).control_plane)
        << utilizationTable(utils).toText();
    for (const auto &u : utils) {
        if (u.name == "datastore-pipes(max)")
            EXPECT_LT(u.utilization, 0.1);
    }
}

TEST(IntegrationTest, OverloadQueuesGrowButWorkCompletes)
{
    CloudSetupSpec spec = smallCloud(true);
    spec.workload.arrival.rate_per_hour = 3000.0;
    spec.workload.duration = minutes(30);
    spec.server.dispatch_width = 4;
    CloudSimulation cs(spec, 5);
    cs.run(/*drain=*/hours(4));
    // Everything eventually completed (accepted ops conserve).
    EXPECT_EQ(cs.server().opsSubmitted(),
              cs.server().opsCompleted() + cs.server().opsFailed());
    // Queueing dominated latency for late ops.
    double mean_queue_us =
        cs.server()
            .phaseHistogram(OpType::CloneLinked, TaskPhase::Queue)
            .mean();
    EXPECT_GT(mean_queue_us, static_cast<double>(seconds(10)));
}

TEST(IntegrationTest, ChurnConservesInventoryAndSpace)
{
    CloudSetupSpec spec = smallCloud(true);
    spec.templates[0].lease = hours(1); // fast churn
    spec.workload.duration = hours(6);
    spec.workload.arrival.rate_per_hour = 60.0;
    spec.workload.action_weights = {10, 5, 5, 2, 2, 1, 1};
    CloudSimulation cs(spec, 17);
    cs.run(/*drain=*/hours(2));

    CloudDirector &cloud = cs.cloud();
    // VM conservation: alive = provisioned - destroyed + the golden
    // master.
    EXPECT_EQ(cs.inventory().numVms(),
              1 + cloud.vmsProvisioned() - cloud.vmsDestroyed());
    // Lease expirations actually drove churn.
    EXPECT_GT(cloud.leases().expirations(), 10u);
    EXPECT_GT(cloud.vmsDestroyed(), 10u);
    // Space accounting stays sane.
    for (DatastoreId ds : cs.datastoreIds()) {
        EXPECT_GE(cs.inventory().datastore(ds).free(), 0);
        EXPECT_GE(cs.inventory().datastore(ds).used(), 0);
    }
    // Tenant usage equals actual live tenant VMs.
    int live_tenant_vms = 0;
    for (VmId vm : cs.inventory().vmIds()) {
        if (!cs.inventory().vm(vm).is_template)
            ++live_tenant_vms;
    }
    EXPECT_EQ(cloud.tenant(cs.tenantIds()[0]).vmsInUse(),
              live_tenant_vms);
}

TEST(IntegrationTest, ProfilesRunScaledDown)
{
    // Scaled-down versions of the two paper profiles run clean.
    for (CloudSetupSpec spec : {cloudASpec(), cloudBSpec()}) {
        spec.infra.hosts = 8;
        spec.infra.datastores = 4;
        spec.workload.duration = hours(1);
        spec.workload.arrival.rate_per_hour = 30.0;
        CloudSimulation cs(spec, 3);
        cs.run();
        EXPECT_GT(cs.server().opsCompleted(), 0u) << spec.name;
        // No task leaks: nothing pending after drain except
        // recurring maintenance/lease events.
        EXPECT_EQ(cs.server().opsSubmitted(),
                  cs.server().opsCompleted() +
                      cs.server().opsFailed())
            << spec.name;
    }
}

/**
 * Chaos: random host crashes and HA recoveries racing a live
 * self-service workload.  Afterward, the global accounting must be
 * exact — crash paths are where double-releases hide.
 */
class ChaosTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ChaosTest, ConservationSurvivesCrashStorms)
{
    CloudSetupSpec spec = smallCloud(true);
    spec.templates[0].lease = hours(1);
    spec.workload.duration = hours(8);
    spec.workload.arrival.rate_per_hour = 90.0;
    spec.workload.action_weights = {10, 4, 8, 3, 2, 1, 2};
    CloudSimulation cs(spec, GetParam());

    HaManager ha(cs.server());
    ChaosConfig ccfg;
    // Aggressive: ~10 outages over the run.
    ccfg.faults.push_back(
        {FaultFamily::HostCrash, minutes(45), minutes(10)});
    ChaosEngine injector(cs.server(), ha, ccfg,
                         Rng(GetParam() * 3 + 1));
    injector.start();

    cs.run(/*drain=*/hours(3));
    injector.stop();

    EXPECT_GT(injector.injected(), 3u);
    EXPECT_GT(ha.vmsRestarted(), 0u);
    // Accounting survives the chaos.
    EXPECT_EQ(cs.server().opsSubmitted(),
              cs.server().opsCompleted() + cs.server().opsFailed());

    Inventory &inv = cs.inventory();
    std::unordered_map<HostId, int> vcpus;
    std::unordered_map<HostId, Bytes> mem;
    for (VmId v : inv.vmIds()) {
        const Vm &vm = inv.vm(v);
        if (vm.powerState() == PowerState::PoweredOn ||
            vm.powerState() == PowerState::PoweringOn ||
            vm.powerState() == PowerState::PoweringOff) {
            ASSERT_TRUE(vm.host.valid());
            vcpus[vm.host] += vm.vcpus;
            mem[vm.host] += vm.memory;
        }
    }
    for (HostId h : cs.hostIds()) {
        EXPECT_EQ(inv.host(h).committedVcpus(), vcpus[h])
            << "host " << h.value;
        EXPECT_EQ(inv.host(h).committedMemory(), mem[h]);
    }
    std::unordered_map<DatastoreId, Bytes> alloc;
    for (DiskId d : inv.diskIds())
        alloc[inv.disk(d).datastore] += inv.disk(d).allocated;
    for (DatastoreId d : cs.datastoreIds())
        EXPECT_EQ(inv.datastore(d).used(), alloc[d]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(3u, 11u, 29u, 71u));

TEST(IntegrationTest, HostAgentSlotSweepRaisesThroughput)
{
    // More host-agent slots -> shorter makespan for a fixed batch of
    // linked clones (until another resource binds).
    auto makespan = [](int slots) {
        CloudSetupSpec spec = smallCloud(true);
        spec.server.agent.op_slots = slots;
        CloudSimulation cs(spec, 4);
        // Hand-issue 64 deploys at t=0.
        for (int i = 0; i < 64; ++i) {
            DeployRequest req;
            req.tenant = cs.tenantIds()[0];
            req.tmpl = cs.templateIds()[0];
            cs.cloud().deployVApp(req);
        }
        cs.sim().runUntil(hours(2));
        EXPECT_EQ(cs.cloud().deploysSucceeded(), 64u);
        double mean_us = cs.stats()
                             .histogram("cloud.deploy_latency_us")
                             .mean();
        return mean_us;
    };
    double slow = makespan(1);
    double fast = makespan(8);
    EXPECT_GT(slow, 1.5 * fast);
}

/**
 * Leaf-spine fabric end to end through the management pipeline: a
 * cross-rack clone storm saturates the oversubscribed spine uplink
 * while rack-local clones — sharing no link with the storm — keep
 * their uncongested latency, and a mid-copy uplink failure with no
 * alternate path fails the op with network-unreachable.
 */
class FabricIntegrationTest : public ::testing::Test
{
  protected:
    void
    build(int spines)
    {
        sim = std::make_unique<Simulator>(99);
        stats = std::make_unique<StatRegistry>();
        inv = std::make_unique<Inventory>(*sim);
        NetworkConfig nc;
        nc.fabric.preset = FabricPreset::LeafSpine;
        nc.fabric.racks = 2;
        nc.fabric.spines = spines;
        nc.fabric.edge_bandwidth = 200.0 * 1024 * 1024;
        nc.fabric.uplink_bandwidth = 25.0 * 1024 * 1024;
        net = std::make_unique<Network>(*sim, nc);
        ManagementServerConfig sc;
        sc.agent.op_slots = 16;
        srv = std::make_unique<ManagementServer>(*sim, *inv, *net,
                                                 *stats, sc);
        Fabric &fab = net->topology();

        DatastoreConfig dc;
        dc.capacity = gib(512);
        dc.copy_bandwidth = 400.0 * 1024 * 1024;
        auto addDs = [&](const char *name, int rack) {
            dc.name = name;
            DatastoreId d = inv->addDatastore(dc);
            fab.attachDatastore(d, rack);
            return d;
        };
        storm_src = addDs("storm-src", 0);
        storm_dst = addDs("storm-dst", 1);
        local_src = addDs("local-src", 0);
        local_dst = addDs("local-dst", 0);

        HostConfig hc;
        hc.cores = 64;
        hc.memory = gib(512);
        hc.name = "h0";
        h0 = inv->addHost(hc);
        hc.name = "h1";
        h1 = inv->addHost(hc);
        fab.attachHost(h0, 0);
        fab.attachHost(h1, 1);
        for (HostId h : {h0, h1})
            for (DatastoreId d :
                 {storm_src, storm_dst, local_src, local_dst})
                inv->connectHostToDatastore(h, d);

        storm_tmpl = makeTemplate("storm-tmpl", storm_src);
        local_tmpl = makeTemplate("local-tmpl", local_src);
    }

    VmId
    makeTemplate(const char *name, DatastoreId ds)
    {
        VmConfig vc;
        vc.name = name;
        vc.vcpus = 1;
        vc.memory = gib(1);
        vc.is_template = true;
        VmId t = inv->createVm(vc);
        DiskConfig bdc;
        bdc.kind = DiskKind::Flat;
        bdc.datastore = ds;
        bdc.capacity = gib(1);
        bdc.initial_allocation = gib(1);
        bdc.owner = t;
        inv->vm(t).disks.push_back(inv->createDisk(bdc));
        return t;
    }

    void
    submitClone(VmId tmpl, HostId host, DatastoreId dst,
                std::vector<Task> &out)
    {
        OpRequest req;
        req.type = OpType::CloneFull;
        req.vm = tmpl;
        req.host = host;
        req.datastore = dst;
        srv->submit(req,
                    [&out](const Task &t) { out.push_back(t); });
    }

    static double
    meanCopyTime(const std::vector<Task> &ts)
    {
        double sum = 0.0;
        for (const Task &t : ts)
            sum += static_cast<double>(
                t.phaseTime(TaskPhase::DataCopy));
        return sum / static_cast<double>(ts.size());
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<StatRegistry> stats;
    std::unique_ptr<Inventory> inv;
    std::unique_ptr<Network> net;
    std::unique_ptr<ManagementServer> srv;
    HostId h0, h1;
    DatastoreId storm_src, storm_dst, local_src, local_dst;
    VmId storm_tmpl, local_tmpl;
};

TEST_F(FabricIntegrationTest, SpineCongestionDoesNotTouchRackLocal)
{
    build(/*spines=*/1);
    std::vector<Task> storm, local;
    // Tenant A: six cross-rack clones all crossing the one 25 MiB/s
    // uplink.  Tenant B: two rack-local clones confined to rack 0.
    for (int i = 0; i < 6; ++i)
        submitClone(storm_tmpl, h1, storm_dst, storm);
    for (int i = 0; i < 2; ++i)
        submitClone(local_tmpl, h0, local_dst, local);
    sim->run();

    ASSERT_EQ(storm.size(), 6u);
    ASSERT_EQ(local.size(), 2u);
    for (const Task &t : storm)
        EXPECT_TRUE(t.succeeded());
    for (const Task &t : local)
        EXPECT_TRUE(t.succeeded());

    // The shared uplink is the storm's bottleneck: 6 GiB over
    // 25 MiB/s is ~4 min of serialized spine time, while each local
    // copy moves 1 GiB over its own 200 MiB/s edge links (~10 s,
    // PS-shared with its twin => ~2x).  Localization means an order
    // of magnitude between the two tenants.
    EXPECT_GT(meanCopyTime(storm), 5.0 * meanCopyTime(local));

    // And the topology agrees: the uplink is the busiest link.
    Fabric &fab = net->topology();
    FabricLinkId up = fab.findLink("up:tor0-spine0");
    ASSERT_NE(up, kInvalidFabricLink);
    EXPECT_EQ(fab.maxLinkBusyTime(), fab.link(up).busyTime());
    // Rack-local copies never touched the spine.
    Bytes spine_bytes = fab.link(up).bytesCompleted();
    EXPECT_EQ(spine_bytes, 6 * gib(1));
}

TEST_F(FabricIntegrationTest, UplinkFailureReroutesOverSecondSpine)
{
    build(/*spines=*/2);
    std::vector<Task> done;
    submitClone(storm_tmpl, h1, storm_dst, done);
    // Mid-copy (the 1 GiB copy holds the uplink for ~41 s), kill the
    // uplink the copy is riding; the second spine offers an
    // alternate path, so the op must still succeed.
    sim->schedule(seconds(20), [this] {
        Fabric &fab = net->topology();
        ASSERT_EQ(fab.activeTransfers(), 1u);
        FabricLinkId up0 = fab.findLink("up:tor0-spine0");
        FabricLinkId up1 = fab.findLink("up:tor0-spine1");
        // Whichever uplink carries the copy dies.
        FabricLinkId busy =
            fab.link(up0).activeTransfers() > 0 ? up0 : up1;
        fab.setLinkUp(busy, false);
    });
    sim->run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].succeeded());
    EXPECT_EQ(net->topology().reroutes(), 1u);
}

TEST_F(FabricIntegrationTest, UnreachableMidCopyFailsWithNetworkError)
{
    build(/*spines=*/1);
    std::vector<Task> done;
    submitClone(storm_tmpl, h1, storm_dst, done);
    sim->schedule(seconds(5), [this] {
        Fabric &fab = net->topology();
        fab.setLinkUp(fab.findLink("up:tor0-spine0"), false);
    });
    sim->run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].succeeded());
    EXPECT_EQ(done[0].error(), TaskError::NetworkUnreachable);
    EXPECT_EQ(net->topology().failedTransfers(), 1u);
    // The failed op released its slots: a rack-local clone still
    // completes afterwards.
    std::vector<Task> local;
    submitClone(local_tmpl, h0, local_dst, local);
    sim->run();
    ASSERT_EQ(local.size(), 1u);
    EXPECT_TRUE(local[0].succeeded());
}

TEST_F(FabricIntegrationTest, FailedReplicaReleasesItsCopy)
{
    build(/*spines=*/1);
    OpRequest req;
    req.type = OpType::ReplicateBaseDisk;
    req.base_disk = inv->vm(storm_tmpl).disks[0];
    req.host = h1;
    req.datastore = storm_dst;
    std::vector<Task> done;
    srv->submit(req, [&done](const Task &t) { done.push_back(t); });
    // The cross-rack copy rides the only uplink; cut it mid-copy.
    sim->schedule(seconds(5), [this] {
        Fabric &fab = net->topology();
        fab.setLinkUp(fab.findLink("up:tor0-spine0"), false);
    });
    sim->run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].error(), TaskError::NetworkUnreachable);
    EXPECT_EQ(net->topology().failedTransfers(), 1u);
    // The provisional copy is rolled back with the task.
    EXPECT_FALSE(inv->hasDisk(done[0].resultDisk()));
    EXPECT_EQ(inv->datastore(storm_dst).used(), 0);
}

} // namespace
} // namespace vcp

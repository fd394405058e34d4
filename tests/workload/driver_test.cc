/**
 * @file
 * Tests for the workload driver: action generation, live-population
 * maintenance, trace recording, and per-seed determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "sim/logging.hh"
#include "workload/profiles.hh"

namespace vcp {
namespace {

CloudSetupSpec
driverSpec()
{
    CloudSetupSpec s;
    s.name = "driver-test";
    s.infra.hosts = 4;
    s.infra.host.cores = 16;
    s.infra.host.memory = gib(64);
    s.infra.datastores = 2;
    s.infra.ds_capacity = gib(512);

    TenantConfig t;
    t.name = "org0";
    t.vm_quota = 0; // unlimited
    s.tenants.push_back(t);
    t.name = "org1";
    s.tenants.push_back(t);

    s.templates = {
        {"tmpl", gib(4), 0.5, 1, gib(1), 1, hours(12)},
    };
    s.workload.duration = hours(2);
    s.workload.arrival.rate_per_hour = 60.0;
    s.workload.record_ops = true;
    return s;
}

TEST(DriverTest, GeneratesActionsForConfiguredWindow)
{
    CloudSimulation cs(driverSpec(), 11);
    cs.run();
    const auto &trace = cs.driver().actions();
    ASSERT_GT(trace.size(), 60u); // ~120 expected over 2 h
    // All actions within the window.
    for (const auto &r : trace.all())
        EXPECT_LT(r.time, hours(2));
    // Issued + skipped = decisions.
    std::uint64_t issued = 0;
    for (auto c : cs.driver().issuedCounts())
        issued += c;
    EXPECT_EQ(issued + cs.driver().skipped(), trace.size());
    // Deploys happened and produced VMs.
    EXPECT_GT(cs.cloud().vmsProvisioned(), 0u);
    EXPECT_GT(cs.driver().livePopulation(), 0u);
}

TEST(DriverTest, LivePopulationCountsDeployedVAppsAtSliceBoundaries)
{
    CloudSetupSpec spec = driverSpec();
    spec.workload.duration = hours(3);
    spec.workload.arrival.rate_per_hour = 240.0;
    CloudSimulation cs(spec, 17);
    cs.start();
    CloudDirector &cloud = cs.cloud();
    std::size_t peak = 0;
    for (int slice = 0; slice < 14; ++slice) {
        cs.runFor(minutes(15));
        // Brute force: every id issued so far, found with hasVApp.
        std::size_t seen = 0, deployed = 0;
        for (std::int64_t v = 1; seen < cloud.numVApps(); ++v) {
            if (!cloud.hasVApp(VAppId(v)))
                continue;
            ++seen;
            if (cloud.vapp(VAppId(v)).state == VAppState::Deployed)
                ++deployed;
        }
        EXPECT_EQ(cs.driver().livePopulation(), deployed)
            << "after slice " << slice;
        peak = std::max(peak, deployed);
    }
    EXPECT_GT(peak, 0u);
    EXPECT_GT(cloud.undeploysCompleted(), 0u);
}

TEST(DriverTest, HandDeployedVAppIsADriverTarget)
{
    // A workload of early undeploys only: its one possible target is
    // a vApp deployed outside the driver.
    CloudSetupSpec spec = driverSpec();
    spec.workload.action_weights.fill(0.0);
    spec.workload.action_weights[static_cast<std::size_t>(
        CloudAction::EarlyUndeploy)] = 1.0;
    CloudSimulation cs(spec, 19);
    DeployRequest req;
    req.tenant = cs.tenantIds()[0];
    req.tmpl = cs.templateIds()[0];
    VAppId va = cs.cloud().deployVApp(req);
    cs.runFor(minutes(30));
    ASSERT_EQ(cs.cloud().vapp(va).state, VAppState::Deployed);
    EXPECT_EQ(cs.driver().livePopulation(), 1u);

    cs.run();
    EXPECT_EQ(cs.driver().issuedCounts()[static_cast<std::size_t>(
                  CloudAction::EarlyUndeploy)],
              1u);
    EXPECT_EQ(cs.cloud().vapp(va).state, VAppState::Destroyed);
    EXPECT_EQ(cs.driver().livePopulation(), 0u);
}

TEST(DriverTest, OpTraceRecordsEveryFinishedOp)
{
    CloudSimulation cs(driverSpec(), 11);
    cs.run();
    EXPECT_EQ(cs.driver().ops().size(),
              cs.server().opsCompleted() + cs.server().opsFailed());
    // Per type, the log holds one record per op in the latency cell.
    std::array<std::uint64_t, kNumOpTypes> logged{};
    for (const OpRecord &r : cs.driver().ops().all())
        logged[static_cast<std::size_t>(r.type)] += 1;
    for (std::size_t o = 0; o < kNumOpTypes; ++o) {
        auto op = static_cast<OpType>(o);
        EXPECT_EQ(logged[o], cs.server().latencyHistogram(op).count())
            << opTypeName(op);
    }
    // Linked clones show up.
    EXPECT_GT(logged[static_cast<std::size_t>(OpType::CloneLinked)],
              0u);
}

TEST(DriverTest, ChurnActionsEventuallyFire)
{
    CloudSetupSpec spec = driverSpec();
    spec.workload.duration = hours(4);
    spec.workload.arrival.rate_per_hour = 120.0;
    CloudSimulation cs(spec, 13);
    cs.run();
    const auto &issued = cs.driver().issuedCounts();
    EXPECT_GT(issued[static_cast<std::size_t>(CloudAction::Deploy)],
              0u);
    EXPECT_GT(
        issued[static_cast<std::size_t>(CloudAction::PowerCycle)],
        0u);
    EXPECT_GT(
        issued[static_cast<std::size_t>(CloudAction::Reconfigure)],
        0u);
    EXPECT_GT(issued[static_cast<std::size_t>(CloudAction::Snapshot)],
              0u);
}

TEST(DriverTest, DeterministicPerSeed)
{
    CloudSimulation a(driverSpec(), 21);
    CloudSimulation b(driverSpec(), 21);
    a.run();
    b.run();
    EXPECT_EQ(a.driver().actions().toCsv(),
              b.driver().actions().toCsv());
    EXPECT_EQ(a.server().opsCompleted(), b.server().opsCompleted());
    EXPECT_EQ(a.cloud().vmsProvisioned(), b.cloud().vmsProvisioned());
}

TEST(DriverTest, DifferentSeedsDiffer)
{
    CloudSimulation a(driverSpec(), 21);
    CloudSimulation b(driverSpec(), 22);
    a.run();
    b.run();
    EXPECT_NE(a.driver().actions().toCsv(),
              b.driver().actions().toCsv());
}

TEST(DriverTest, StartTwicePanics)
{
    CloudSimulation cs(driverSpec(), 11);
    cs.driver().start();
    EXPECT_THROW(cs.driver().start(), PanicError);
}

TEST(ProfilesTest, CloudSpecsAreWellFormed)
{
    for (const CloudSetupSpec &s : {cloudASpec(), cloudBSpec()}) {
        EXPECT_GT(s.infra.hosts, 0);
        EXPECT_GT(s.infra.datastores, 0);
        EXPECT_FALSE(s.tenants.empty());
        EXPECT_FALSE(s.templates.empty());
        EXPECT_GT(s.workload.arrival.rate_per_hour, 0.0);
        double weight_sum = 0.0;
        for (double w : s.workload.action_weights)
            weight_sum += w;
        EXPECT_GT(weight_sum, 0.0);
    }
    // The two clouds are genuinely different workloads.
    EXPECT_NE(cloudASpec().infra.hosts, cloudBSpec().infra.hosts);
    EXPECT_NE(cloudASpec().workload.arrival.rate_per_hour,
              cloudBSpec().workload.arrival.rate_per_hour);
}

TEST(ProfilesTest, CloudSimulationBuildsInfrastructure)
{
    CloudSetupSpec spec = driverSpec();
    CloudSimulation cs(spec, 1);
    EXPECT_EQ(cs.inventory().numHosts(), 4u);
    EXPECT_EQ(cs.inventory().numDatastores(), 2u);
    EXPECT_EQ(cs.tenantIds().size(), 2u);
    EXPECT_EQ(cs.templateIds().size(), 1u);
    // Every host reaches every datastore.
    for (HostId h : cs.hostIds()) {
        for (DatastoreId d : cs.datastoreIds())
            EXPECT_TRUE(cs.inventory().host(h).hasDatastore(d));
    }
    // The golden master is seeded in the pool.
    EXPECT_EQ(
        cs.cloud().pool().replicas(cs.templateIds()[0]).size(), 1u);
}

} // namespace
} // namespace vcp

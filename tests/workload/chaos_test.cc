/**
 * @file
 * Chaos engine tests: spec parsing, per-family fault behaviour
 * (DB stall parking, agent disconnect/reconcile, fabric heal), the
 * telemetry counters, and the sharded-execution byte-identity oracle
 * with chaos active.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/cloud_fixture.hh"
#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "workload/chaos.hh"

namespace vcp {
namespace {

TEST(ChaosSpec, ParsesFamiliesAndDurations)
{
    ChaosConfig cfg;
    std::string err;
    ASSERT_TRUE(parseChaosSpec(
        "disconnect:mtbf=20m,duration=4m;db-stall:mtbf=1h,"
        "duration=90s",
        cfg, err))
        << err;
    ASSERT_EQ(cfg.faults.size(), 2u);
    EXPECT_EQ(cfg.faults[0].family, FaultFamily::HostDisconnect);
    EXPECT_EQ(cfg.faults[0].mtbf, minutes(20));
    EXPECT_EQ(cfg.faults[0].duration, minutes(4));
    EXPECT_EQ(cfg.faults[1].family, FaultFamily::DbStall);
    EXPECT_EQ(cfg.faults[1].mtbf, hours(1));
    EXPECT_EQ(cfg.faults[1].duration, seconds(90));
}

TEST(ChaosSpec, BareFamilyUsesDefaults)
{
    ChaosConfig cfg;
    std::string err;
    ASSERT_TRUE(parseChaosSpec("crash", cfg, err)) << err;
    ASSERT_EQ(cfg.faults.size(), 1u);
    EXPECT_EQ(cfg.faults[0].family, FaultFamily::HostCrash);
    EXPECT_GT(cfg.faults[0].mtbf, 0);
    EXPECT_GT(cfg.faults[0].duration, 0);
}

TEST(ChaosSpec, FractionalHoursParse)
{
    ChaosConfig cfg;
    std::string err;
    ASSERT_TRUE(
        parseChaosSpec("link-down:mtbf=2.5h,duration=0.5m", cfg, err))
        << err;
    EXPECT_EQ(cfg.faults[0].mtbf, minutes(150));
    EXPECT_EQ(cfg.faults[0].duration, seconds(30));
}

TEST(ChaosSpec, RejectsMalformedSpecs)
{
    ChaosConfig cfg;
    std::string err;
    // Unknown family.
    EXPECT_FALSE(parseChaosSpec("meteor:mtbf=1h", cfg, err));
    // Missing unit suffix.
    EXPECT_FALSE(parseChaosSpec("crash:mtbf=90", cfg, err));
    // Garbage value and junk after the number.
    EXPECT_FALSE(parseChaosSpec("crash:mtbf=xm", cfg, err));
    EXPECT_FALSE(parseChaosSpec("crash:mtbf=1q", cfg, err));
    EXPECT_FALSE(parseChaosSpec("crash:duration=4mm", cfg, err));
    // Zero/negative durations, and one past the event horizon.
    EXPECT_FALSE(parseChaosSpec("crash:mtbf=0s", cfg, err));
    EXPECT_FALSE(parseChaosSpec("crash:mtbf=-5m", cfg, err));
    EXPECT_FALSE(parseChaosSpec("crash:mtbf=1e12h", cfg, err));
    // Not key=value, unknown key, empty spec.
    EXPECT_FALSE(parseChaosSpec("crash:mtbf", cfg, err));
    EXPECT_FALSE(parseChaosSpec("crash:severity=9m", cfg, err));
    EXPECT_FALSE(parseChaosSpec("", cfg, err));
    EXPECT_FALSE(err.empty());
}

TEST(ChaosSpec, MtbfShorthandAppendsACrashLane)
{
    ChaosConfig cfg;
    std::string err;
    ASSERT_TRUE(parseChaosSpec("disconnect", cfg, err)) << err;
    addMtbfCrashLane(cfg, hours(1));
    ASSERT_EQ(cfg.faults.size(), 2u);
    EXPECT_EQ(cfg.faults[0].family, FaultFamily::HostDisconnect);
    EXPECT_EQ(cfg.faults[1].family, FaultFamily::HostCrash);
    EXPECT_EQ(cfg.faults[1].mtbf, hours(1));
    EXPECT_EQ(cfg.faults[1].duration, minutes(15));
}

TEST(ChaosSpec, FamilyNamesRoundTrip)
{
    for (std::size_t i = 0; i < kNumFaultFamilies; ++i) {
        FaultFamily f = static_cast<FaultFamily>(i);
        FaultFamily back;
        ASSERT_TRUE(faultFamilyFromName(faultFamilyName(f), back));
        EXPECT_EQ(back, f);
    }
    FaultFamily out;
    EXPECT_FALSE(faultFamilyFromName("", out));
    EXPECT_FALSE(faultFamilyFromName("crashx", out));
}

using ChaosCloudTest = CloudFixture;

TEST_F(ChaosCloudTest, DbStallParksChainsAndUnstallDrains)
{
    InventoryDatabase &db = srv().database();
    bool done = false;
    db.runTxns(5, [&] { done = true; });
    db.setStalled(true);
    EXPECT_TRUE(db.stalled());

    // The in-service transaction completes; the chain's next step
    // parks instead of entering the pool.
    drain(hours(1));
    EXPECT_FALSE(done);
    EXPECT_EQ(db.stalledChains(), 1u);

    db.setStalled(false);
    EXPECT_EQ(db.stalledChains(), 0u);
    drain(hours(1));
    EXPECT_TRUE(done);
}

TEST_F(ChaosCloudTest, DisconnectParksInFlightOpUntilReconcile)
{
    HostId h = cs->hostIds()[0];
    HostAgent &agent = srv().hostAgent(h);
    bool done = false;
    agent.execute(seconds(5), [&] { done = true; });
    srv().disconnectHost(h);
    EXPECT_FALSE(inv().host(h).connected());
    EXPECT_EQ(srv().agentDisconnects(), 1u);

    // The host-side work still finishes, but its completion parks on
    // the dark agent instead of reaching the server.
    drain(hours(1));
    EXPECT_FALSE(done);
    EXPECT_EQ(agent.parkedOps(), 1u);

    bool reconciled = false;
    srv().reconcileHost(h, [&] { reconciled = true; });
    drain(hours(1));
    EXPECT_TRUE(reconciled);
    EXPECT_TRUE(done);
    EXPECT_EQ(agent.parkedOps(), 0u);
    EXPECT_TRUE(inv().host(h).connected());
    EXPECT_EQ(srv().reconciles(), 1u);
    EXPECT_EQ(srv().reconcileOpsResumed(), 1u);
}

TEST_F(ChaosCloudTest, ReconcileOnConnectedHostIsImmediateNoOp)
{
    bool done = false;
    srv().reconcileHost(cs->hostIds()[0], [&] { done = true; });
    EXPECT_TRUE(done);
    EXPECT_EQ(srv().reconciles(), 0u);
}

TEST_F(ChaosCloudTest, DisconnectedHostRejectsNewOps)
{
    auto va = deploy(tenant0());
    ASSERT_TRUE(va.has_value());
    VmId vm = va->vms[0];
    HostId h = inv().vm(vm).host;
    srv().disconnectHost(h);

    OpRequest req;
    req.type = OpType::PowerOff;
    req.vm = vm;
    std::optional<Task> result;
    srv().submit(req, [&](const Task &t) { result = t; });
    drain();
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->succeeded());
    EXPECT_EQ(result->error(), TaskError::HostUnavailable);
    srv().reconcileHost(h);
    drain();
}

/** Small leaf-spine cloud with a four-family chaos storm riding on
 *  the regular workload. */
CloudSetupSpec
chaosCloudSpec(int shards)
{
    CloudSetupSpec spec = cloudASpec();
    spec.infra.hosts = 8;
    spec.infra.network.fabric.preset = FabricPreset::LeafSpine;
    spec.workload.duration = hours(2);
    spec.exec.shards = shards;
    return spec;
}

constexpr const char *kStormSpec =
    "disconnect:mtbf=10m,duration=3m;db-stall:mtbf=30m,duration=60s;"
    "crash:mtbf=40m,duration=8m;link-down:mtbf=15m,duration=2m";

TEST(ChaosEngineTest, StormInjectsRecoversAndQuiescesClean)
{
    setLogQuiet(true);
    CloudSimulation cs(chaosCloudSpec(1), 11);
    HaManager ha(cs.server());
    ChaosConfig cfg;
    std::string err;
    ASSERT_TRUE(parseChaosSpec(kStormSpec, cfg, err)) << err;
    ChaosEngine chaos(cs.server(), ha, cfg, cs.sim().rng().fork());
    TelemetryRegistry reg;
    chaos.attachTelemetry(&reg);
    chaos.start();
    cs.start();
    cs.sim().runUntil(hours(2));

    EXPECT_GT(chaos.injected(), 0u);
    EXPECT_GT(
        chaos.familyStats(FaultFamily::HostDisconnect).injected, 0u);
    EXPECT_GT(chaos.familyStats(FaultFamily::DbStall).injected, 0u);
    EXPECT_GT(chaos.familyStats(FaultFamily::LinkDown).injected, 0u);
    // The telemetry counters read the engine's own accounting.
    EXPECT_EQ(reg.mergedCounter("chaos.injected").total(),
              chaos.injected());
    EXPECT_EQ(reg.mergedCounter("chaos.recovered").total(),
              chaos.recovered());
    EXPECT_EQ(reg.mergedCounter("chaos.db-stall.injected").total(),
              chaos.familyStats(FaultFamily::DbStall).injected);
    EXPECT_EQ(reg.mergedHistogram("chaos.recovery_us").count(),
              chaos.recovered());

    chaos.stop();
    chaos.quiesce();
    cs.sim().runUntil(hours(4));

    // After quiesce + drain the plant is whole again: no dark or
    // crashed hosts, no parked completions, no wedged DB, all links
    // up — the no-leaked-in-flight-ops invariant.
    for (HostId h : cs.hostIds()) {
        EXPECT_TRUE(cs.inventory().host(h).connected());
        EXPECT_FALSE(ha.isCrashed(h));
        EXPECT_EQ(cs.server().hostAgent(h).parkedOps(), 0u);
        EXPECT_TRUE(cs.server().hostAgent(h).connected());
    }
    EXPECT_FALSE(cs.server().database().stalled());
    EXPECT_EQ(cs.server().database().stalledChains(), 0u);
    Fabric &fab = cs.network().topology();
    for (std::size_t l = 0; l < fab.numLinks(); ++l)
        EXPECT_TRUE(fab.linkUp(static_cast<FabricLinkId>(l)));
    EXPECT_GT(cs.server().reconciles(), 0u);
}

TEST(ChaosEngineTest, LanesOfOneFamilyShareItsCounters)
{
    CloudSimulation cs(chaosCloudSpec(1), 11);
    HaManager ha(cs.server());
    ChaosConfig cfg;
    std::string err;
    ASSERT_TRUE(parseChaosSpec("crash:mtbf=1h;disconnect;crash:mtbf=3h",
                               cfg, err))
        << err;
    ChaosEngine chaos(cs.server(), ha, cfg, cs.sim().rng().fork());
    TelemetryRegistry reg;
    chaos.attachTelemetry(&reg);

    // One probe per series: a repeated name would be a duplicate key
    // in every snapshot.
    std::vector<std::string> names;
    for (const auto &p : reg.counterProbes())
        names.push_back(p.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "chaos.injected", "chaos.recovered",
                         "chaos.crash.injected", "chaos.crash.recovered",
                         "chaos.disconnect.injected",
                         "chaos.disconnect.recovered"}));
}

TEST(ChaosEngineTest, GapsPastTheEventHorizonAreCapped)
{
    // An mtbf at the horizon draws a first gap past it on about one
    // seed in three.  The gap is capped at the horizon, where the
    // crash never fires, instead of panicking in the event queue.
    setLogQuiet(true);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        CloudSimulation cs(chaosCloudSpec(1), seed);
        HaManager ha(cs.server());
        ChaosConfig cfg;
        addMtbfCrashLane(cfg, kMaxEventTime);
        ChaosEngine chaos(cs.server(), ha, cfg, cs.sim().rng().fork());
        EXPECT_NO_THROW({
            chaos.start();
            cs.run();
        }) << "seed " << seed;
        EXPECT_EQ(chaos.injected(), 0u);
    }
}

struct ChaosArtifact
{
    std::string stats_csv;
    SimTime end = 0;
    std::uint64_t injected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t reconciles = 0;
    std::uint64_t ops_completed = 0;
    std::uint64_t events = 0;
};

ChaosArtifact
runChaosCloud(int shards)
{
    setLogQuiet(true);
    CloudSimulation cs(chaosCloudSpec(shards), 42);
    HaManager ha(cs.server());
    ChaosConfig cfg;
    std::string err;
    EXPECT_TRUE(parseChaosSpec(kStormSpec, cfg, err)) << err;
    ChaosEngine chaos(cs.server(), ha, cfg, cs.sim().rng().fork());
    chaos.start();
    cs.run(minutes(10));
    ChaosArtifact a;
    a.stats_csv = cs.stats().toCsv();
    a.end = cs.sim().now();
    a.injected = chaos.injected();
    a.recovered = chaos.recovered();
    a.reconciles = cs.server().reconciles();
    a.ops_completed = cs.server().opsCompleted();
    a.events = cs.eventsProcessed();
    return a;
}

TEST(ChaosEngineTest, ShardedRunsAreByteIdenticalUnderChaos)
{
    ChaosArtifact serial = runChaosCloud(1);
    ASSERT_GT(serial.injected, 0u);
    for (int k : {2, 4, 8}) {
        ChaosArtifact sharded = runChaosCloud(k);
        EXPECT_EQ(sharded.stats_csv, serial.stats_csv)
            << "shards=" << k;
        EXPECT_EQ(sharded.end, serial.end) << "shards=" << k;
        EXPECT_EQ(sharded.injected, serial.injected);
        EXPECT_EQ(sharded.recovered, serial.recovered);
        EXPECT_EQ(sharded.reconciles, serial.reconciles);
        EXPECT_EQ(sharded.ops_completed, serial.ops_completed);
        EXPECT_EQ(sharded.events, serial.events);
    }
}

} // namespace
} // namespace vcp

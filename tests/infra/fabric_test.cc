/**
 * @file
 * Tests for the routed network fabric: path selection, tiebreaks,
 * recompute-on-failure, multi-hop charging, and rerouting.
 */

#include <gtest/gtest.h>

#include "infra/fabric.hh"
#include "sim/logging.hh"

namespace vcp {
namespace {

constexpr auto kSwitch = FabricNodeKind::Switch;

TEST(FabricTest, DegenerateTransferMatchesFlatPipe)
{
    Simulator sim;
    Fabric fab(sim, 1000.0);
    EXPECT_TRUE(fab.degenerate());
    EXPECT_EQ(fab.numLinks(), 1u);
    SimTime d1 = -1, d2 = -1;
    // Endpoints are irrelevant on the degenerate fabric: both
    // transfers share the one core link exactly like the old flat
    // pipe (2 x 1000 B at 1000 B/s PS => both finish at t=2s).
    fab.startTransfer(kInvalidFabricNode, kInvalidFabricNode, 1000,
                      [&] { d1 = sim.now(); });
    fab.startTransfer(kInvalidFabricNode, kInvalidFabricNode, 1000,
                      [&] { d2 = sim.now(); });
    sim.run();
    EXPECT_NEAR(toSeconds(d1), 2.0, 0.01);
    EXPECT_NEAR(toSeconds(d2), 2.0, 0.01);
    EXPECT_EQ(fab.link(0).bytesCompleted(), 2000);
}

TEST(FabricTest, RoutePrefersLowerLatency)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricNodeId c = fab.addNode(kSwitch, "c");
    // Direct link is slow (10ms); the two-hop detour totals 2ms.
    fab.addLink(a, b, 1000.0, msec(10), "direct");
    FabricLinkId l1 = fab.addLink(a, c, 1000.0, msec(1), "via-c-1");
    FabricLinkId l2 = fab.addLink(c, b, 1000.0, msec(1), "via-c-2");
    std::vector<FabricLinkId> path;
    ASSERT_TRUE(fab.route(a, b, path));
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0], l1);
    EXPECT_EQ(path[1], l2);
}

TEST(FabricTest, EqualLatencyTiebreaksOnHopCount)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricNodeId c = fab.addNode(kSwitch, "c");
    // Both routes cost 2ms end to end; the direct one has one hop.
    FabricLinkId direct = fab.addLink(a, b, 1000.0, msec(2), "direct");
    fab.addLink(a, c, 1000.0, msec(1), "via-c-1");
    fab.addLink(c, b, 1000.0, msec(1), "via-c-2");
    std::vector<FabricLinkId> path;
    ASSERT_TRUE(fab.route(a, b, path));
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0], direct);
}

TEST(FabricTest, ZeroLatencyFallsBackToMinHop)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricNodeId c = fab.addNode(kSwitch, "c");
    FabricNodeId d = fab.addNode(kSwitch, "d");
    FabricLinkId direct = fab.addLink(a, d, 1000.0, 0, "direct");
    fab.addLink(a, b, 1000.0, 0, "h1");
    fab.addLink(b, c, 1000.0, 0, "h2");
    fab.addLink(c, d, 1000.0, 0, "h3");
    std::vector<FabricLinkId> path;
    ASSERT_TRUE(fab.route(a, d, path));
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0], direct);
}

TEST(FabricTest, RoutesRecomputeWhenLinkGoesDown)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricNodeId c = fab.addNode(kSwitch, "c");
    FabricLinkId direct = fab.addLink(a, b, 1000.0, 0, "direct");
    FabricLinkId l1 = fab.addLink(a, c, 1000.0, 0, "via-c-1");
    FabricLinkId l2 = fab.addLink(c, b, 1000.0, 0, "via-c-2");
    std::vector<FabricLinkId> path;
    ASSERT_TRUE(fab.route(a, b, path));
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0], direct);

    fab.setLinkUp(direct, false);
    ASSERT_TRUE(fab.route(a, b, path));
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0], l1);
    EXPECT_EQ(path[1], l2);

    // And back: restoring the link restores the shorter path.
    fab.setLinkUp(direct, true);
    ASSERT_TRUE(fab.route(a, b, path));
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0], direct);
}

TEST(FabricTest, DownNodeBlocksRoutesThroughIt)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricNodeId c = fab.addNode(kSwitch, "c");
    fab.addLink(a, c, 1000.0, 0, "a-c");
    fab.addLink(c, b, 1000.0, 0, "c-b");
    std::vector<FabricLinkId> path;
    ASSERT_TRUE(fab.route(a, b, path));
    fab.setNodeUp(c, false);
    EXPECT_FALSE(fab.route(a, b, path));
    fab.setNodeUp(c, true);
    EXPECT_TRUE(fab.route(a, b, path));
}

TEST(FabricTest, MultiHopChargesEveryLegAndTailLatency)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricNodeId c = fab.addNode(kSwitch, "c");
    fab.addLink(a, b, 1000.0, msec(100), "fast");
    fab.addLink(b, c, 500.0, msec(200), "slow");
    SimTime done = -1;
    fab.startTransfer(a, c, 1000, [&] { done = sim.now(); });
    EXPECT_EQ(fab.activeTransfers(), 1u);
    sim.run();
    // The slow leg drains at 2s; the path's 300ms propagation tail
    // follows.
    EXPECT_NEAR(toSeconds(done), 2.3, 0.01);
    EXPECT_EQ(fab.activeTransfers(), 0u);
    EXPECT_EQ(fab.link(0).bytesCompleted(), 1000);
    EXPECT_EQ(fab.link(1).bytesCompleted(), 1000);
}

TEST(FabricTest, UnreachableDestinationFailsTransfer)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricLinkId only = fab.addLink(a, b, 1000.0, 0, "only");
    fab.setLinkUp(only, false);
    bool ok = false, err = false;
    fab.startTransfer(a, b, 1000, [&] { ok = true; },
                      [&] { err = true; });
    sim.run();
    EXPECT_FALSE(ok);
    EXPECT_TRUE(err);
    EXPECT_EQ(fab.failedTransfers(), 1u);
}

TEST(FabricTest, MidFlightLinkFailureReroutes)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricNodeId c = fab.addNode(kSwitch, "c");
    FabricLinkId direct = fab.addLink(a, b, 100.0, 0, "direct");
    fab.addLink(a, c, 50.0, 0, "alt-1");
    fab.addLink(c, b, 50.0, 0, "alt-2");
    SimTime done = -1;
    bool err = false;
    fab.startTransfer(a, b, 1000, [&] { done = sim.now(); },
                      [&] { err = true; });
    // At t=5s the direct link (100 B/s) has moved 500 bytes; the
    // remaining 500 re-charge on the 50 B/s detour (10 more seconds).
    sim.schedule(seconds(5), [&] { fab.setLinkUp(direct, false); });
    sim.run();
    EXPECT_FALSE(err);
    EXPECT_NEAR(toSeconds(done), 15.0, 0.05);
    EXPECT_EQ(fab.reroutes(), 1u);
    EXPECT_EQ(fab.failedTransfers(), 0u);
}

TEST(FabricTest, MidFlightFailureWithoutAlternateFails)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricLinkId only = fab.addLink(a, b, 100.0, 0, "only");
    SimTime done = -1;
    SimTime errat = -1;
    fab.startTransfer(a, b, 1000, [&] { done = sim.now(); },
                      [&] { errat = sim.now(); });
    sim.schedule(seconds(5), [&] { fab.setLinkUp(only, false); });
    sim.run();
    EXPECT_EQ(done, -1);
    EXPECT_EQ(errat, seconds(5));
    EXPECT_EQ(fab.failedTransfers(), 1u);
    EXPECT_EQ(fab.activeTransfers(), 0u);
}

TEST(FabricTest, CancelReleasesAllLegs)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricNodeId c = fab.addNode(kSwitch, "c");
    fab.addLink(a, b, 1000.0, 0, "l0");
    fab.addLink(b, c, 1000.0, 0, "l1");
    bool fired = false;
    FabricTransferId id =
        fab.startTransfer(a, c, 1000, [&] { fired = true; });
    EXPECT_TRUE(fab.cancelTransfer(id));
    EXPECT_FALSE(fab.cancelTransfer(id));
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(fab.activeTransfers(), 0u);
}

TEST(FabricTest, ActiveTransfersIntegralCoversEveryExit)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    FabricNodeId b = fab.addNode(kSwitch, "b");
    FabricNodeId c = fab.addNode(kSwitch, "c");
    FabricNodeId d = fab.addNode(kSwitch, "d");
    FabricNodeId e = fab.addNode(kSwitch, "e");
    FabricNodeId f = fab.addNode(kSwitch, "f");
    fab.addLink(a, b, 100.0, 0, "ab");
    fab.addLink(c, d, 100.0, 0, "cd");
    FabricLinkId ef = fab.addLink(e, f, 100.0, 0, "ef");
    // One transfer per link: completed at 2 s, cancelled at 1 s, and
    // failed by its link going down at 3 s.
    bool done = false, failed = false;
    fab.startTransfer(a, b, 200, [&] { done = true; });
    FabricTransferId cancelled = fab.startTransfer(c, d, 1000, [] {});
    fab.startTransfer(e, f, 1000, [] {}, [&] { failed = true; });
    EXPECT_EQ(fab.activeTransfersLevel().level(), 3);
    sim.schedule(seconds(1), [&] { fab.cancelTransfer(cancelled); });
    sim.schedule(seconds(3), [&] { fab.setLinkUp(ef, false); });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(failed);
    EXPECT_EQ(fab.activeTransfers(), 0u);
    EXPECT_EQ(fab.activeTransfersLevel().level(), 0);
    // 3 over [0, 1), 2 over [1, 2), 1 over [2, 3).
    EXPECT_NEAR(
        toSeconds(fab.activeTransfersLevel().integralAt(seconds(9))),
        6.0, 1e-3);
}

TEST(FabricTest, LeafSpineRackLocalAndCrossRackPaths)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    FabricConfig cfg;
    cfg.preset = FabricPreset::LeafSpine;
    cfg.racks = 2;
    cfg.spines = 1;
    fab.buildLeafSpine(cfg);
    EXPECT_FALSE(fab.degenerate());
    HostId h0(0, 0, 1), h1(1, 1, 1);
    DatastoreId d0(0, 0, 1), d1(1, 1, 1);
    fab.attachHost(h0, 0);
    fab.attachHost(h1, 1);
    fab.attachDatastore(d0, 0);
    fab.attachDatastore(d1, 1);

    std::vector<FabricLinkId> path;
    // Rack-local: host0 -> tor0 -> ds0, never touching the spine.
    ASSERT_TRUE(fab.route(fab.hostNode(h0), fab.datastoreNode(d0),
                          path));
    EXPECT_EQ(path.size(), 2u);
    // Cross-rack: host0 -> tor0 -> spine -> tor1 -> ds1.
    ASSERT_TRUE(fab.route(fab.hostNode(h0), fab.datastoreNode(d1),
                          path));
    EXPECT_EQ(path.size(), 4u);
    EXPECT_NE(fab.findLink("up:tor0-spine0"), kInvalidFabricLink);
    EXPECT_EQ(fab.hostNode(HostId(9, 9, 1)), kInvalidFabricNode);
}

TEST(FabricTest, SpineSharedByCrossRackTransfersOnly)
{
    Simulator sim;
    Fabric fab(sim, 1.0);
    FabricConfig cfg;
    cfg.preset = FabricPreset::LeafSpine;
    cfg.racks = 2;
    cfg.spines = 1;
    cfg.edge_bandwidth = 1000.0;
    cfg.uplink_bandwidth = 500.0; // oversubscribed spine
    fab.buildLeafSpine(cfg);
    HostId h0(0, 0, 1);
    DatastoreId d0(0, 0, 1), d1(1, 1, 1), d2(2, 2, 1);
    fab.attachHost(h0, 0);
    fab.attachDatastore(d0, 0);
    fab.attachDatastore(d1, 1);
    fab.attachDatastore(d2, 0);

    SimTime local = -1, cross = -1;
    // Rack-local copy rides only edge links at 1000 B/s.
    fab.startTransfer(fab.datastoreNode(d0), fab.datastoreNode(d2),
                      1000, [&] { local = sim.now(); });
    // The cross-rack copy is bottlenecked by the 500 B/s uplink.
    fab.startTransfer(fab.hostNode(h0), fab.datastoreNode(d1), 1000,
                      [&] { cross = sim.now(); });
    sim.run();
    EXPECT_NEAR(toSeconds(local), 1.0, 0.01);
    EXPECT_NEAR(toSeconds(cross), 2.0, 0.01);
}

TEST(FabricTest, InvalidTopologyFatal)
{
    Simulator sim;
    EXPECT_THROW(Fabric(sim, 0.0), FatalError);
    Fabric fab(sim, 1.0);
    fab.clearTopology();
    FabricNodeId a = fab.addNode(kSwitch, "a");
    EXPECT_THROW(fab.addLink(a, a, 1000.0, 0, "self"), FatalError);
    EXPECT_THROW(fab.addLink(a, FabricNodeId(99), 1000.0, 0, "oob"),
                 FatalError);
    FabricNodeId b = fab.addNode(kSwitch, "b");
    EXPECT_THROW(fab.addLink(a, b, 0.0, 0, "nobw"), FatalError);
    EXPECT_THROW(fab.addLink(a, b, 1000.0, -1, "neglat"), FatalError);
}

} // namespace
} // namespace vcp

/**
 * @file
 * Tests for the management-network model and the datastore wrapper.
 */

#include <gtest/gtest.h>

#include "infra/datastore.hh"
#include "infra/network.hh"
#include "sim/logging.hh"

namespace vcp {
namespace {

TEST(NetworkTest, FabricSharesBandwidth)
{
    Simulator sim;
    NetworkConfig cfg;
    cfg.core_bandwidth = 1000.0; // 1000 B/s
    Network net(sim, cfg);
    SimTime d1 = -1, d2 = -1;
    net.fabric().startTransfer(1000, [&] { d1 = sim.now(); });
    net.fabric().startTransfer(1000, [&] { d2 = sim.now(); });
    sim.run();
    EXPECT_NEAR(toSeconds(d1), 2.0, 0.01);
    EXPECT_NEAR(toSeconds(d2), 2.0, 0.01);
    EXPECT_EQ(net.fabric().bytesCompleted(), 2000);
}

TEST(NetworkTest, InvalidConfigFatal)
{
    Simulator sim;
    NetworkConfig cfg;
    cfg.core_bandwidth = 0.0;
    EXPECT_THROW(Network(sim, cfg), FatalError);
}

TEST(DatastoreTest, ReserveReleaseLifecycle)
{
    Simulator sim;
    DatastoreConfig cfg;
    cfg.name = "ds";
    cfg.capacity = gib(10);
    Datastore ds(sim, DatastoreId(1), cfg);
    EXPECT_TRUE(ds.reserve(gib(4)));
    EXPECT_EQ(ds.free(), gib(6));
    EXPECT_FALSE(ds.reserve(gib(7)));
    EXPECT_EQ(ds.used(), gib(4));
    ds.release(gib(4));
    EXPECT_EQ(ds.used(), 0);
}

TEST(DatastoreTest, NegativeAmountsPanic)
{
    Simulator sim;
    DatastoreConfig cfg;
    cfg.name = "ds";
    cfg.capacity = gib(1);
    Datastore ds(sim, DatastoreId(1), cfg);
    EXPECT_THROW(ds.reserve(-1), PanicError);
    EXPECT_THROW(ds.release(-1), PanicError);
}

TEST(DatastoreTest, ZeroCapacityFatal)
{
    Simulator sim;
    DatastoreConfig cfg;
    cfg.name = "ds";
    cfg.capacity = 0;
    EXPECT_THROW(Datastore(sim, DatastoreId(1), cfg), FatalError);
}

TEST(DatastoreTest, CopyPipeUsesConfiguredBandwidth)
{
    Simulator sim;
    DatastoreConfig cfg;
    cfg.name = "ds";
    cfg.capacity = gib(10);
    cfg.copy_bandwidth = 512.0;
    Datastore ds(sim, DatastoreId(1), cfg);
    SimTime done = -1;
    ds.copyPipe().startTransfer(1024, [&] { done = sim.now(); });
    sim.run();
    EXPECT_NEAR(toSeconds(done), 2.0, 0.01);
}

} // namespace
} // namespace vcp

/**
 * @file
 * Tests for host admission accounting and connection state.
 */

#include <gtest/gtest.h>

#include "infra/host.hh"
#include "sim/logging.hh"

namespace vcp {
namespace {

HostConfig
smallHost()
{
    HostConfig cfg;
    cfg.name = "h";
    cfg.cores = 4;
    cfg.memory = gib(16);
    cfg.cpu_overcommit = 2.0; // 8 vCPUs
    cfg.mem_overcommit = 1.0; // 16 GiB
    return cfg;
}

TEST(HostTest, CapacitiesFollowOvercommit)
{
    Host h(HostId(1), smallHost());
    EXPECT_DOUBLE_EQ(h.vcpuCapacity(), 8.0);
    EXPECT_EQ(h.memoryCapacity(), gib(16));
}

TEST(HostTest, CommitAndRelease)
{
    Host h(HostId(1), smallHost());
    EXPECT_TRUE(h.commit(4, gib(8)));
    EXPECT_EQ(h.committedVcpus(), 4);
    EXPECT_EQ(h.committedMemory(), gib(8));
    EXPECT_DOUBLE_EQ(h.cpuLoad(), 0.5);
    h.release(4, gib(8));
    EXPECT_EQ(h.committedVcpus(), 0);
}

TEST(HostTest, CommitRejectedWhenCpuFull)
{
    Host h(HostId(1), smallHost());
    EXPECT_TRUE(h.commit(8, gib(1)));
    EXPECT_FALSE(h.canAdmit(1, gib(1)));
    EXPECT_FALSE(h.commit(1, gib(1)));
}

TEST(HostTest, CommitRejectedWhenMemoryFull)
{
    Host h(HostId(1), smallHost());
    EXPECT_TRUE(h.commit(1, gib(16)));
    EXPECT_FALSE(h.commit(1, gib(1)));
}

TEST(HostTest, FailedCommitLeavesStateUnchanged)
{
    Host h(HostId(1), smallHost());
    h.commit(8, gib(8));
    EXPECT_FALSE(h.commit(1, gib(16)));
    EXPECT_EQ(h.committedVcpus(), 8);
    EXPECT_EQ(h.committedMemory(), gib(8));
}

TEST(HostTest, OverReleasePanics)
{
    Host h(HostId(1), smallHost());
    h.commit(2, gib(2));
    EXPECT_THROW(h.release(3, gib(1)), PanicError);
}

TEST(HostTest, DisconnectedRejectsAdmission)
{
    Host h(HostId(1), smallHost());
    h.setConnected(false);
    EXPECT_FALSE(h.canAdmit(1, gib(1)));
    h.setConnected(true);
    EXPECT_TRUE(h.canAdmit(1, gib(1)));
}

TEST(HostTest, MaintenanceRejectsAdmission)
{
    Host h(HostId(1), smallHost());
    h.setMaintenance(true);
    EXPECT_FALSE(h.canAdmit(1, gib(1)));
}

TEST(HostTest, DatastoreAttachmentIdempotent)
{
    Host h(HostId(1), smallHost());
    h.attachDatastore(DatastoreId(7));
    h.attachDatastore(DatastoreId(7));
    EXPECT_EQ(h.datastores().size(), 1u);
    EXPECT_TRUE(h.hasDatastore(DatastoreId(7)));
    EXPECT_FALSE(h.hasDatastore(DatastoreId(8)));
}

TEST(HostTest, VmRegistration)
{
    Host h(HostId(1), smallHost());
    h.registerVm(VmId(5));
    EXPECT_TRUE(h.hasVm(VmId(5)));
    EXPECT_EQ(h.numVms(), 1u);
    h.unregisterVm(VmId(5));
    EXPECT_FALSE(h.hasVm(VmId(5)));
}

TEST(HostTest, InvalidConfigFatal)
{
    HostConfig cfg = smallHost();
    cfg.cores = 0;
    EXPECT_THROW(Host(HostId(1), cfg), FatalError);
    cfg = smallHost();
    cfg.mem_overcommit = 0.0;
    EXPECT_THROW(Host(HostId(1), cfg), FatalError);
}

} // namespace
} // namespace vcp

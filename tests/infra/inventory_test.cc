/**
 * @file
 * Tests for the inventory: entity lifecycle, disk chains and
 * ref-counting, datastore space accounting, cluster membership.
 */

#include <gtest/gtest.h>

#include "infra/inventory.hh"
#include "sim/logging.hh"

namespace vcp {
namespace {

class InventoryTest : public ::testing::Test
{
  protected:
    InventoryTest() : inv(sim)
    {
        DatastoreConfig dc;
        dc.name = "ds0";
        dc.capacity = gib(100);
        ds = inv.addDatastore(dc);

        HostConfig hc;
        hc.name = "h0";
        hc.memory = gib(64);
        host = inv.addHost(hc);
        inv.connectHostToDatastore(host, ds);
    }

    Simulator sim;
    Inventory inv;
    DatastoreId ds;
    HostId host;
};

TEST_F(InventoryTest, EntityCreationAndLookup)
{
    EXPECT_EQ(inv.numHosts(), 1u);
    EXPECT_EQ(inv.numDatastores(), 1u);
    EXPECT_EQ(inv.host(host).name(), "h0");
    EXPECT_EQ(inv.datastore(ds).name(), "ds0");
    EXPECT_TRUE(inv.host(host).hasDatastore(ds));
}

TEST_F(InventoryTest, LookupMissingPanics)
{
    EXPECT_THROW(inv.vm(VmId(999)), PanicError);
    EXPECT_THROW(inv.host(HostId(999)), PanicError);
    EXPECT_THROW(inv.disk(DiskId(999)), PanicError);
    EXPECT_THROW(inv.datastore(DatastoreId(999)), PanicError);
}

TEST_F(InventoryTest, IdsAreUniqueAcrossKinds)
{
    VmConfig vc;
    vc.name = "vm";
    VmId vm = inv.createVm(vc);
    EXPECT_NE(vm.value, host.value);
    EXPECT_NE(vm.value, ds.value);
}

TEST_F(InventoryTest, ThickFlatDiskReservesCapacity)
{
    DiskConfig dc;
    dc.kind = DiskKind::Flat;
    dc.datastore = ds;
    dc.capacity = gib(10);
    DiskId d = inv.createDisk(dc);
    ASSERT_TRUE(d.valid());
    EXPECT_EQ(inv.disk(d).allocated, gib(10));
    EXPECT_EQ(inv.datastore(ds).used(), gib(10));
    EXPECT_EQ(inv.disk(d).chain_depth, 1);
}

TEST_F(InventoryTest, ThinFlatDiskReservesInitialAllocation)
{
    DiskConfig dc;
    dc.kind = DiskKind::Flat;
    dc.datastore = ds;
    dc.capacity = gib(10);
    dc.initial_allocation = gib(4);
    DiskId d = inv.createDisk(dc);
    EXPECT_EQ(inv.disk(d).allocated, gib(4));
    EXPECT_EQ(inv.datastore(ds).used(), gib(4));
}

TEST_F(InventoryTest, DiskCreationFailsWhenDatastoreFull)
{
    DiskConfig dc;
    dc.kind = DiskKind::Flat;
    dc.datastore = ds;
    dc.capacity = gib(200); // > 100 GiB capacity
    DiskId d = inv.createDisk(dc);
    EXPECT_FALSE(d.valid());
    EXPECT_EQ(inv.datastore(ds).used(), 0);
}

TEST_F(InventoryTest, DeltaDiskChainsAndRefCounts)
{
    DiskConfig base_cfg;
    base_cfg.kind = DiskKind::Flat;
    base_cfg.datastore = ds;
    base_cfg.capacity = gib(8);
    DiskId base = inv.createDisk(base_cfg);

    DiskConfig delta_cfg;
    delta_cfg.kind = DiskKind::LinkedCloneDelta;
    delta_cfg.datastore = ds;
    delta_cfg.capacity = gib(8);
    delta_cfg.initial_allocation = mib(80);
    delta_cfg.parent = base;
    DiskId delta = inv.createDisk(delta_cfg);

    EXPECT_EQ(inv.disk(base).ref_count, 1);
    EXPECT_EQ(inv.disk(delta).chain_depth, 2);
    EXPECT_TRUE(inv.disk(delta).isDelta());
    EXPECT_EQ(inv.disk(delta).parent, base);
}

TEST_F(InventoryTest, DeltaWithoutParentPanics)
{
    DiskConfig dc;
    dc.kind = DiskKind::LinkedCloneDelta;
    dc.datastore = ds;
    dc.capacity = gib(8);
    EXPECT_THROW(inv.createDisk(dc), PanicError);
}

TEST_F(InventoryTest, CannotDestroyReferencedBase)
{
    DiskConfig base_cfg;
    base_cfg.kind = DiskKind::Flat;
    base_cfg.datastore = ds;
    base_cfg.capacity = gib(8);
    DiskId base = inv.createDisk(base_cfg);

    DiskConfig delta_cfg;
    delta_cfg.kind = DiskKind::LinkedCloneDelta;
    delta_cfg.datastore = ds;
    delta_cfg.capacity = gib(8);
    delta_cfg.initial_allocation = mib(10);
    delta_cfg.parent = base;
    DiskId delta = inv.createDisk(delta_cfg);

    EXPECT_FALSE(inv.destroyDisk(base));
    EXPECT_TRUE(inv.destroyDisk(delta));
    EXPECT_EQ(inv.disk(base).ref_count, 0);
    EXPECT_TRUE(inv.destroyDisk(base));
    EXPECT_EQ(inv.datastore(ds).used(), 0);
}

TEST_F(InventoryTest, DestroyVmReleasesEverything)
{
    VmConfig vc;
    vc.name = "vm";
    VmId vm = inv.createVm(vc);

    DiskConfig dc;
    dc.kind = DiskKind::Flat;
    dc.datastore = ds;
    dc.capacity = gib(10);
    dc.owner = vm;
    DiskId d = inv.createDisk(dc);
    inv.vm(vm).disks.push_back(d);

    EXPECT_TRUE(inv.destroyVm(vm));
    EXPECT_FALSE(inv.hasVm(vm));
    EXPECT_FALSE(inv.hasDisk(d));
    EXPECT_EQ(inv.datastore(ds).used(), 0);
}

TEST_F(InventoryTest, DestroyVmWithChildRefsFails)
{
    VmConfig vc;
    vc.name = "template";
    VmId vm = inv.createVm(vc);

    DiskConfig dc;
    dc.kind = DiskKind::Flat;
    dc.datastore = ds;
    dc.capacity = gib(8);
    dc.owner = vm;
    DiskId base = inv.createDisk(dc);
    inv.vm(vm).disks.push_back(base);

    DiskConfig delta_cfg;
    delta_cfg.kind = DiskKind::LinkedCloneDelta;
    delta_cfg.datastore = ds;
    delta_cfg.capacity = gib(8);
    delta_cfg.initial_allocation = mib(10);
    delta_cfg.parent = base;
    inv.createDisk(delta_cfg);

    EXPECT_FALSE(inv.destroyVm(vm));
    EXPECT_TRUE(inv.hasVm(vm));
}

TEST_F(InventoryTest, DestroyPoweredOnVmPanics)
{
    VmConfig vc;
    vc.name = "vm";
    VmId vm = inv.createVm(vc);
    inv.vm(vm).forcePowerState(PowerState::PoweredOn);
    EXPECT_THROW(inv.destroyVm(vm), PanicError);
}

TEST_F(InventoryTest, DestroyRegisteredVmPanics)
{
    VmConfig vc;
    vc.name = "vm";
    VmId vm = inv.createVm(vc);
    inv.vm(vm).host = host;
    EXPECT_THROW(inv.destroyVm(vm), PanicError);
}

TEST_F(InventoryTest, ClusterMembership)
{
    ClusterId c = inv.addCluster("c0");
    inv.assignHostToCluster(host, c);
    EXPECT_TRUE(inv.cluster(c).hasHost(host));
    EXPECT_EQ(inv.host(host).cluster(), c);

    ClusterId c2 = inv.addCluster("c1");
    inv.assignHostToCluster(host, c2);
    EXPECT_FALSE(inv.cluster(c).hasHost(host));
    EXPECT_TRUE(inv.cluster(c2).hasHost(host));
}

TEST_F(InventoryTest, VmCreationCounterTracksChurn)
{
    VmConfig vc;
    vc.name = "vm";
    VmId a = inv.createVm(vc);
    inv.destroyVm(a);
    inv.createVm(vc);
    EXPECT_EQ(inv.numVms(), 1u);
    EXPECT_EQ(inv.vmsEverCreated(), 2u);
}

TEST_F(InventoryTest, SortedIdEnumeration)
{
    VmConfig vc;
    vc.name = "vm";
    VmId a = inv.createVm(vc);
    VmId b = inv.createVm(vc);
    auto ids = inv.vmIds();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], a);
    EXPECT_EQ(ids[1], b);
}

TEST_F(InventoryTest, DatastoreUtilization)
{
    EXPECT_DOUBLE_EQ(inv.datastore(ds).utilization(), 0.0);
    inv.datastore(ds).reserve(gib(50));
    EXPECT_DOUBLE_EQ(inv.datastore(ds).utilization(), 0.5);
    inv.datastore(ds).release(gib(50));
    EXPECT_THROW(inv.datastore(ds).release(1), PanicError);
}

} // namespace
} // namespace vcp

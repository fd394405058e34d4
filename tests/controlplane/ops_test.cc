/**
 * @file
 * Per-operation behaviour of the management server: every verb's
 * success path, validation failures, and state effects on the
 * inventory.
 */

#include "cp_fixture.hh"

#include "cloud/ha_manager.hh"

namespace vcp {
namespace {

using OpsTest = ControlPlaneFixture;

TEST_F(OpsTest, PowerOnSucceedsAndCommitsResources)
{
    VmId vm = makeVm(h0, ds0);
    Task t = powerOn(vm);
    EXPECT_TRUE(t.succeeded());
    EXPECT_EQ(inv->vm(vm).powerState(), PowerState::PoweredOn);
    EXPECT_EQ(inv->host(h0).committedVcpus(), 1);
    EXPECT_EQ(inv->host(h0).committedMemory(), gib(2));
    EXPECT_GT(t.latency(), 0);
}

TEST_F(OpsTest, PowerOnOfPoweredOnFails)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    Task t = powerOn(vm);
    EXPECT_FALSE(t.succeeded());
    EXPECT_EQ(t.error(), TaskError::InvalidState);
    // Resources were not double-committed.
    EXPECT_EQ(inv->host(h0).committedVcpus(), 1);
}

TEST_F(OpsTest, PowerOnOfMissingVmFails)
{
    OpRequest req;
    req.type = OpType::PowerOn;
    req.vm = VmId(424242);
    Task t = runOp(req);
    EXPECT_EQ(t.error(), TaskError::NoSuchEntity);
}

TEST_F(OpsTest, PowerOnUnregisteredVmFails)
{
    VmConfig vc;
    vc.name = "loose";
    VmId vm = inv->createVm(vc);
    OpRequest req;
    req.type = OpType::PowerOn;
    req.vm = vm;
    Task t = runOp(req);
    EXPECT_EQ(t.error(), TaskError::InvalidState);
}

TEST_F(OpsTest, PowerOnFailsWhenHostFull)
{
    // Fill the host: 16 cores x 4.0 overcommit = 64 vCPUs.
    VmId big = makeVm(h0, ds0, gib(1), 64, gib(1));
    powerOn(big);
    VmId vm = makeVm(h0, ds0);
    Task t = powerOn(vm);
    EXPECT_EQ(t.error(), TaskError::PlacementFailed);
    EXPECT_EQ(inv->vm(vm).powerState(), PowerState::PoweredOff);
}

TEST_F(OpsTest, PowerOnMaintenanceHostFails)
{
    VmId vm = makeVm(h0, ds0);
    inv->host(h0).setMaintenance(true);
    Task t = powerOn(vm);
    EXPECT_EQ(t.error(), TaskError::HostUnavailable);
}

TEST_F(OpsTest, PowerOffReleasesResources)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    OpRequest req;
    req.type = OpType::PowerOff;
    req.vm = vm;
    Task t = runOp(req);
    EXPECT_TRUE(t.succeeded());
    EXPECT_EQ(inv->vm(vm).powerState(), PowerState::PoweredOff);
    EXPECT_EQ(inv->host(h0).committedVcpus(), 0);
}

TEST_F(OpsTest, CloneOutOfSpaceRollsBack)
{
    // ds1 keeps 4 GiB free; a full clone of the template needs 8.
    makeVm(h0, ds1, gib(508));
    std::size_t vms_before = inv->numVms();
    Bytes used_before = inv->datastore(ds1).used();
    OpRequest req;
    req.type = OpType::CloneFull;
    req.vm = tmpl;
    req.host = h1;
    req.datastore = ds1;
    Task t = runOp(req);
    EXPECT_EQ(t.error(), TaskError::OutOfSpace);
    // Provisional VM record rolled back; no space leaked.
    EXPECT_EQ(inv->numVms(), vms_before);
    EXPECT_EQ(inv->datastore(ds1).used(), used_before);
    EXPECT_EQ(inv->host(h1).numVms(), 0u);
}

TEST_F(OpsTest, CloneFullUnreachableDatastoreFails)
{
    DatastoreConfig dc;
    dc.name = "island";
    dc.capacity = gib(100);
    DatastoreId island = inv->addDatastore(dc);
    OpRequest req;
    req.type = OpType::CloneFull;
    req.vm = tmpl;
    req.host = h0;
    req.datastore = island;
    EXPECT_EQ(runOp(req).error(), TaskError::BadRequest);
}

TEST_F(OpsTest, CloneFullCopiesAllocatedBytes)
{
    OpRequest req;
    req.type = OpType::CloneFull;
    req.vm = tmpl;
    req.host = h0;
    req.datastore = ds0;
    req.name = "copy";
    Bytes moved_before = srv->bytesMoved();
    Task t = runOp(req);
    ASSERT_TRUE(t.succeeded());
    // Template has 4 GiB allocated.
    EXPECT_EQ(srv->bytesMoved() - moved_before, gib(4));
    VmId vm = t.resultVm();
    // A named record, registered on the requested host.
    EXPECT_EQ(inv->vm(vm).name, "copy");
    EXPECT_EQ(inv->vm(vm).host, h0);
    EXPECT_TRUE(inv->host(h0).hasVm(vm));
    ASSERT_EQ(inv->vm(vm).disks.size(), 1u);
    const VirtualDisk &d = inv->disk(inv->vm(vm).disks[0]);
    EXPECT_EQ(d.kind, DiskKind::Flat);
    EXPECT_EQ(d.capacity, gib(8));
    // Shape inherited from the template.
    EXPECT_EQ(inv->vm(vm).vcpus, 2);
    EXPECT_EQ(inv->vm(vm).memory, gib(4));
    EXPECT_GT(t.phaseTime(TaskPhase::DataCopy), 0);
}

TEST_F(OpsTest, CloneFullCrossDatastoreUsesNetwork)
{
    OpRequest req;
    req.type = OpType::CloneFull;
    req.vm = tmpl;
    req.host = h0;
    req.datastore = ds1; // template disk lives on ds0
    req.name = "copy";
    Bytes fabric_before = net->fabric().bytesCompleted();
    Task t = runOp(req);
    ASSERT_TRUE(t.succeeded());
    EXPECT_EQ(net->fabric().bytesCompleted() - fabric_before, gib(4));
}

TEST_F(OpsTest, CloneLinkedMovesNoDataAndChains)
{
    OpRequest req;
    req.type = OpType::CloneLinked;
    req.vm = tmpl;
    req.host = h0;
    req.datastore = ds0;
    req.base_disk = base;
    req.name = "lc";
    Bytes moved_before = srv->bytesMoved();
    Task t = runOp(req);
    ASSERT_TRUE(t.succeeded());
    EXPECT_EQ(srv->bytesMoved(), moved_before); // zero data
    VmId vm = t.resultVm();
    const VirtualDisk &d = inv->disk(inv->vm(vm).disks[0]);
    EXPECT_EQ(d.kind, DiskKind::LinkedCloneDelta);
    EXPECT_EQ(d.parent, base);
    EXPECT_EQ(d.chain_depth, 2);
    EXPECT_EQ(inv->disk(base).ref_count, 1);
    EXPECT_EQ(t.phaseTime(TaskPhase::DataCopy), 0);
}

TEST_F(OpsTest, CloneLinkedIsMuchFasterThanFull)
{
    OpRequest full;
    full.type = OpType::CloneFull;
    full.vm = tmpl;
    full.host = h0;
    full.datastore = ds0;
    Task tf = runOp(full);

    OpRequest linked;
    linked.type = OpType::CloneLinked;
    linked.vm = tmpl;
    linked.host = h1;
    linked.datastore = ds0;
    linked.base_disk = base;
    Task tl = runOp(linked);

    ASSERT_TRUE(tf.succeeded());
    ASSERT_TRUE(tl.succeeded());
    // 4 GiB at 100 MiB/s is ~41 s of copy; linked is a few seconds.
    EXPECT_GT(tf.latency(), 4 * tl.latency());
}

TEST_F(OpsTest, CloneLinkedBaseOnWrongDatastoreFails)
{
    OpRequest req;
    req.type = OpType::CloneLinked;
    req.vm = tmpl;
    req.host = h0;
    req.datastore = ds1; // base lives on ds0
    req.base_disk = base;
    EXPECT_EQ(runOp(req).error(), TaskError::BadRequest);
}

TEST_F(OpsTest, CloneLinkedWithoutBaseFails)
{
    OpRequest req;
    req.type = OpType::CloneLinked;
    req.vm = tmpl;
    req.host = h0;
    req.datastore = ds0;
    EXPECT_EQ(runOp(req).error(), TaskError::BadRequest);
}

TEST_F(OpsTest, DestroyRemovesVmAndFreesSpace)
{
    VmId vm = makeVm(h0, ds0, gib(6));
    Bytes used = inv->datastore(ds0).used();
    OpRequest req;
    req.type = OpType::Destroy;
    req.vm = vm;
    Task t = runOp(req);
    EXPECT_TRUE(t.succeeded());
    EXPECT_FALSE(inv->hasVm(vm));
    EXPECT_FALSE(inv->host(h0).hasVm(vm));
    EXPECT_EQ(inv->datastore(ds0).used(), used - gib(6));
}

TEST_F(OpsTest, DestroyPoweredOnFails)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    OpRequest req;
    req.type = OpType::Destroy;
    req.vm = vm;
    EXPECT_EQ(runOp(req).error(), TaskError::InvalidState);
    EXPECT_TRUE(inv->hasVm(vm));
}

TEST_F(OpsTest, DestroyBaseWithCloneRefsFails)
{
    // Linked-clone off the template, then try to destroy the
    // template.
    OpRequest clone;
    clone.type = OpType::CloneLinked;
    clone.vm = tmpl;
    clone.host = h0;
    clone.datastore = ds0;
    clone.base_disk = base;
    ASSERT_TRUE(runOp(clone).succeeded());

    OpRequest req;
    req.type = OpType::Destroy;
    req.vm = tmpl;
    EXPECT_EQ(runOp(req).error(), TaskError::InvalidState);
}

TEST_F(OpsTest, ReconfigurePoweredOffJustChangesShape)
{
    VmId vm = makeVm(h0, ds0);
    OpRequest req;
    req.type = OpType::Reconfigure;
    req.vm = vm;
    req.vcpus = 8;
    req.memory = gib(16);
    ASSERT_TRUE(runOp(req).succeeded());
    EXPECT_EQ(inv->vm(vm).vcpus, 8);
    EXPECT_EQ(inv->vm(vm).memory, gib(16));
    EXPECT_EQ(inv->host(h0).committedVcpus(), 0);
}

TEST_F(OpsTest, ReconfigurePoweredOnAdjustsCommitment)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    OpRequest req;
    req.type = OpType::Reconfigure;
    req.vm = vm;
    req.vcpus = 4;
    req.memory = gib(8);
    ASSERT_TRUE(runOp(req).succeeded());
    EXPECT_EQ(inv->host(h0).committedVcpus(), 4);
    EXPECT_EQ(inv->host(h0).committedMemory(), gib(8));
}

TEST_F(OpsTest, ReconfigureBeyondHostCapacityFailsAndRestores)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    OpRequest req;
    req.type = OpType::Reconfigure;
    req.vm = vm;
    req.vcpus = 1000;
    req.memory = gib(2);
    EXPECT_EQ(runOp(req).error(), TaskError::PlacementFailed);
    // Old commitment restored, old shape kept.
    EXPECT_EQ(inv->host(h0).committedVcpus(), 1);
    EXPECT_EQ(inv->vm(vm).vcpus, 1);
}

TEST_F(OpsTest, SnapshotAppendsDeltaAndRemoveConsolidates)
{
    VmId vm = makeVm(h0, ds0);
    OpRequest snap;
    snap.type = OpType::Snapshot;
    snap.vm = vm;
    ASSERT_TRUE(runOp(snap).succeeded());
    ASSERT_EQ(inv->vm(vm).disks.size(), 2u);
    DiskId delta = inv->vm(vm).disks.back();
    EXPECT_EQ(inv->disk(delta).kind, DiskKind::SnapshotDelta);
    EXPECT_EQ(inv->disk(delta).chain_depth, 2);

    Bytes moved_before = srv->bytesMoved();
    OpRequest rm;
    rm.type = OpType::RemoveSnapshot;
    rm.vm = vm;
    ASSERT_TRUE(runOp(rm).succeeded());
    EXPECT_EQ(inv->vm(vm).disks.size(), 1u);
    EXPECT_FALSE(inv->hasDisk(delta));
    // Consolidation moved the delta's allocated bytes.
    EXPECT_GT(srv->bytesMoved(), moved_before);
}

TEST_F(OpsTest, RemoveSnapshotWithoutSnapshotFails)
{
    VmId vm = makeVm(h0, ds0);
    OpRequest rm;
    rm.type = OpType::RemoveSnapshot;
    rm.vm = vm;
    EXPECT_EQ(runOp(rm).error(), TaskError::InvalidState);
}

TEST_F(OpsTest, RelocateMovesDisksAcrossDatastores)
{
    VmId vm = makeVm(h0, ds0, gib(6));
    Bytes ds0_used = inv->datastore(ds0).used();
    Bytes ds1_used = inv->datastore(ds1).used();
    OpRequest req;
    req.type = OpType::Relocate;
    req.vm = vm;
    req.datastore = ds1;
    Task t = runOp(req);
    ASSERT_TRUE(t.succeeded());
    EXPECT_EQ(inv->disk(inv->vm(vm).disks[0]).datastore, ds1);
    EXPECT_EQ(inv->datastore(ds0).used(), ds0_used - gib(6));
    EXPECT_EQ(inv->datastore(ds1).used(), ds1_used + gib(6));
}

TEST_F(OpsTest, RelocatePoweredOnFails)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    OpRequest req;
    req.type = OpType::Relocate;
    req.vm = vm;
    req.datastore = ds1;
    EXPECT_EQ(runOp(req).error(), TaskError::InvalidState);
}

TEST_F(OpsTest, RelocateLinkedCloneFails)
{
    OpRequest clone;
    clone.type = OpType::CloneLinked;
    clone.vm = tmpl;
    clone.host = h0;
    clone.datastore = ds0;
    clone.base_disk = base;
    Task ct = runOp(clone);
    ASSERT_TRUE(ct.succeeded());

    OpRequest req;
    req.type = OpType::Relocate;
    req.vm = ct.resultVm();
    req.datastore = ds1;
    EXPECT_EQ(runOp(req).error(), TaskError::InvalidState);
}

TEST_F(OpsTest, RelocateOutOfSpaceRollsBackReservation)
{
    VmId vm = makeVm(h0, ds0, gib(6));
    // Fill ds1.
    ASSERT_TRUE(inv->datastore(ds1).reserve(
        inv->datastore(ds1).free() - gib(1)));
    Bytes ds1_used = inv->datastore(ds1).used();
    OpRequest req;
    req.type = OpType::Relocate;
    req.vm = vm;
    req.datastore = ds1;
    EXPECT_EQ(runOp(req).error(), TaskError::OutOfSpace);
    EXPECT_EQ(inv->datastore(ds1).used(), ds1_used);
    EXPECT_EQ(inv->disk(inv->vm(vm).disks[0]).datastore, ds0);
}

TEST_F(OpsTest, RelocateLosingItsPathReturnsTheReservation)
{
    VmId vm = makeVm(h0, ds0, gib(6));
    Bytes ds0_used = inv->datastore(ds0).used();
    Bytes ds1_used = inv->datastore(ds1).used();
    OpRequest req;
    req.type = OpType::Relocate;
    req.vm = vm;
    req.datastore = ds1;
    std::optional<Task> result;
    srv->submit(req, [&](const Task &t) { result = t; });
    // Run until the cross-datastore copy is on the wire; the relock
    // step has reserved the disk's 6 GiB on ds1 by then.
    Fabric &fab = net->topology();
    while (fab.activeTransfers() == 0 && !result)
        sim->runUntil(sim->now() + msec(100));
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(inv->datastore(ds1).used(), ds1_used + gib(6));

    // The copy's only path goes down.
    fab.setLinkUp(fab.findLink("net:core"), false);
    sim->run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->error(), TaskError::NetworkUnreachable);
    // finish() gave back exactly the reservation; the disk stayed.
    EXPECT_EQ(inv->datastore(ds1).used(), ds1_used);
    EXPECT_EQ(inv->datastore(ds0).used(), ds0_used);
    EXPECT_EQ(inv->disk(inv->vm(vm).disks[0]).datastore, ds0);
}

TEST_F(OpsTest, MigrateMovesPoweredOnVm)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    OpRequest req;
    req.type = OpType::Migrate;
    req.vm = vm;
    req.host = h1;
    Task t = runOp(req);
    ASSERT_TRUE(t.succeeded());
    EXPECT_EQ(inv->vm(vm).host, h1);
    EXPECT_FALSE(inv->host(h0).hasVm(vm));
    EXPECT_TRUE(inv->host(h1).hasVm(vm));
    EXPECT_EQ(inv->host(h0).committedVcpus(), 0);
    EXPECT_EQ(inv->host(h1).committedVcpus(), 1);
    EXPECT_EQ(inv->vm(vm).powerState(), PowerState::PoweredOn);
    // Memory image crossed the fabric.
    EXPECT_GT(t.phaseTime(TaskPhase::DataCopy), 0);
}

TEST_F(OpsTest, MigrateWhoseSourceCrashesReturnsTheCommitment)
{
    HaManager ha(*srv);
    VmId vm = makeVm(h0, ds0, gib(4), 3, gib(6));
    powerOn(vm);
    OpRequest req;
    req.type = OpType::Migrate;
    req.vm = vm;
    req.host = h1;
    std::optional<Task> result;
    srv->submit(req, [&](const Task &t) { result = t; });
    // Run until the memory image is on the wire; the relock step has
    // committed the VM's shape on the destination by then.
    while (net->topology().activeTransfers() == 0 && !result)
        sim->runUntil(sim->now() + msec(100));
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(inv->host(h1).committedVcpus(), 3);
    EXPECT_EQ(inv->host(h1).committedMemory(), gib(6));

    // The source host crashes mid-flight and takes the VM down.
    ASSERT_EQ(ha.crashHost(h0), 1u);
    EXPECT_EQ(inv->host(h0).committedVcpus(), 0);
    sim->run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->error(), TaskError::InvalidState);
    // finish() gave back exactly the destination commitment.
    EXPECT_EQ(inv->host(h1).committedVcpus(), 0);
    EXPECT_EQ(inv->host(h1).committedMemory(), 0);
    EXPECT_EQ(inv->vm(vm).host, h0);
    EXPECT_FALSE(inv->host(h1).hasVm(vm));
    EXPECT_EQ(inv->vm(vm).powerState(), PowerState::PoweredOff);
}

TEST_F(OpsTest, MigratePoweredOffFails)
{
    VmId vm = makeVm(h0, ds0);
    OpRequest req;
    req.type = OpType::Migrate;
    req.vm = vm;
    req.host = h1;
    EXPECT_EQ(runOp(req).error(), TaskError::InvalidState);
}

TEST_F(OpsTest, MigrateToSameHostFails)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    OpRequest req;
    req.type = OpType::Migrate;
    req.vm = vm;
    req.host = h0;
    EXPECT_EQ(runOp(req).error(), TaskError::InvalidState);
}

TEST_F(OpsTest, HostLifecycleRoundTrip)
{
    inv->host(h1).setConnected(false);
    OpRequest add;
    add.type = OpType::AddHost;
    add.host = h1;
    ASSERT_TRUE(runOp(add).succeeded());
    EXPECT_TRUE(inv->host(h1).connected());

    OpRequest maint;
    maint.type = OpType::EnterMaintenance;
    maint.host = h1;
    ASSERT_TRUE(runOp(maint).succeeded());
    EXPECT_TRUE(inv->host(h1).inMaintenance());

    OpRequest exit_m;
    exit_m.type = OpType::ExitMaintenance;
    exit_m.host = h1;
    ASSERT_TRUE(runOp(exit_m).succeeded());
    EXPECT_FALSE(inv->host(h1).inMaintenance());

    // Back in service: the host takes a VM again.
    EXPECT_TRUE(powerOn(makeVm(h1, ds0)).succeeded());
}

TEST_F(OpsTest, AddConnectedHostFails)
{
    OpRequest add;
    add.type = OpType::AddHost;
    add.host = h0;
    EXPECT_EQ(runOp(add).error(), TaskError::InvalidState);
}

TEST_F(OpsTest, EnterMaintenanceWithPoweredOnVmFails)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    OpRequest maint;
    maint.type = OpType::EnterMaintenance;
    maint.host = h0;
    EXPECT_EQ(runOp(maint).error(), TaskError::InvalidState);
}

TEST_F(OpsTest, ReplicateBaseDiskCreatesCopyOnTarget)
{
    OpRequest req;
    req.type = OpType::ReplicateBaseDisk;
    req.base_disk = base;
    req.datastore = ds1;
    req.host = h0;
    Bytes fabric_before = net->fabric().bytesCompleted();
    Task t = runOp(req);
    ASSERT_TRUE(t.succeeded());
    DiskId copy = t.resultDisk();
    ASSERT_TRUE(copy.valid());
    EXPECT_EQ(inv->disk(copy).datastore, ds1);
    EXPECT_EQ(inv->disk(copy).kind, DiskKind::Flat);
    EXPECT_EQ(inv->disk(copy).capacity, gib(8));
    // The base's 4 GiB allocated crossed the fabric.
    EXPECT_EQ(net->fabric().bytesCompleted() - fabric_before, gib(4));
}

TEST_F(OpsTest, ReplicateToSameDatastoreUsesDatastorePipe)
{
    OpRequest req;
    req.type = OpType::ReplicateBaseDisk;
    req.base_disk = base;
    req.datastore = ds0; // base also lives on ds0
    req.host = h0;
    Bytes pipe_before =
        inv->datastore(ds0).copyPipe().bytesCompleted();
    Bytes fabric_before = net->fabric().bytesCompleted();
    Task t = runOp(req);
    ASSERT_TRUE(t.succeeded());
    EXPECT_EQ(inv->disk(t.resultDisk()).datastore, ds0);
    EXPECT_EQ(
        inv->datastore(ds0).copyPipe().bytesCompleted() - pipe_before,
        gib(4));
    EXPECT_EQ(net->fabric().bytesCompleted(), fabric_before);
}

TEST_F(OpsTest, ReplicateToDatastoreHostCannotSeeFails)
{
    OpRequest req;
    req.type = OpType::ReplicateBaseDisk;
    req.base_disk = base;
    req.host = h0;
    std::size_t disks_before = inv->numDisks();
    // No datastore at all, then one that does not exist.
    EXPECT_EQ(runOp(req).error(), TaskError::BadRequest);
    req.datastore = DatastoreId(999);
    EXPECT_EQ(runOp(req).error(), TaskError::BadRequest);
    EXPECT_EQ(inv->numDisks(), disks_before);
}

} // namespace
} // namespace vcp

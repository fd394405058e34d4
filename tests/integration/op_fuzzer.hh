/**
 * @file
 * A randomized operation storm against one management server.
 *
 * OpFuzzer plants three hosts, two datastores and a template, then
 * fires a deliberate mix of valid and invalid requests of all 21 op
 * types at random times, with host crashes and agent disconnects
 * mixed in.  fuzz_test.cc checks global invariants after each storm;
 * the golden suite digests the finished-task stream of one seed.
 */

#ifndef VCP_TESTS_OP_FUZZER_HH
#define VCP_TESTS_OP_FUZZER_HH

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/ha_manager.hh"
#include "controlplane/management_server.hh"

namespace vcp {

class OpFuzzer
{
  public:
    OpFuzzer(std::uint64_t seed)
        : sim(seed), inv(sim), net(sim, {}),
          srv(sim, inv, net, stats, makeCfg()), ha(srv),
          rng(seed * 31 + 7)
    {
        // Plant: 3 hosts, 2 datastores, one template with a base.
        for (int d = 0; d < 2; ++d) {
            DatastoreConfig dc;
            dc.name = "ds" + std::to_string(d);
            dc.capacity = gib(256);
            ds.push_back(inv.addDatastore(dc));
        }
        for (int h = 0; h < 3; ++h) {
            HostConfig hc;
            hc.name = "h" + std::to_string(h);
            hc.cores = 8;
            hc.memory = gib(32);
            HostId id = inv.addHost(hc);
            for (DatastoreId d : ds)
                inv.connectHostToDatastore(id, d);
            hosts.push_back(id);
        }
        VmConfig vc;
        vc.name = "tmpl";
        vc.vcpus = 1;
        vc.memory = gib(1);
        vc.is_template = true;
        tmpl = inv.createVm(vc);
        DiskConfig bdc;
        bdc.kind = DiskKind::Flat;
        bdc.datastore = ds[0];
        bdc.capacity = gib(4);
        bdc.initial_allocation = gib(2);
        bdc.owner = tmpl;
        base = inv.createDisk(bdc);
        inv.vm(tmpl).disks.push_back(base);
        vms.push_back(tmpl); // invalid target for many ops: good
    }

    static ManagementServerConfig
    makeCfg()
    {
        ManagementServerConfig cfg;
        cfg.dispatch_width = 8;
        cfg.retain_finished_tasks = false;
        return cfg;
    }

    /** Issue @p n random ops at random times over @p window. */
    void
    storm(int n, SimDuration window)
    {
        for (int i = 0; i < n; ++i) {
            SimDuration at = rng.uniformInt(0, window);
            sim.schedule(at, [this] { fireRandomOp(); });
        }
        sim.run();
    }

    ManagementServer &server() { return srv; }

    void
    checkInvariants()
    {
        // Accounting.
        EXPECT_EQ(srv.opsSubmitted(),
                  srv.opsCompleted() + srv.opsFailed());
        EXPECT_GT(srv.opsCompleted(), 0u);
        EXPECT_GT(srv.opsFailed(), 0u); // fuzz must hit error paths

        // No execution resource leaked.
        EXPECT_EQ(srv.scheduler().inFlight(), 0);
        EXPECT_EQ(srv.scheduler().queueLength(), 0u);
        EXPECT_EQ(srv.apiCenter().busyServers(), 0);
        EXPECT_EQ(srv.database().center().busyServers(), 0);
        for (HostId h : hosts) {
            EXPECT_EQ(srv.hostAgent(h).center().busyServers(), 0);
            EXPECT_EQ(srv.hostAgent(h).center().queueLength(), 0u);
        }
        for (DatastoreId d : ds) {
            EXPECT_EQ(srv.datastoreSlots(d).busyServers(), 0);
        }

        // No lock held on any entity.
        for (VmId v : inv.vmIds())
            EXPECT_EQ(srv.lockManager().holders(lockKey(v)), 0);
        for (HostId h : hosts)
            EXPECT_EQ(srv.lockManager().holders(lockKey(h)), 0);
        for (DatastoreId d : ds)
            EXPECT_EQ(srv.lockManager().holders(lockKey(d)), 0);
        for (DiskId d : inv.diskIds())
            EXPECT_EQ(srv.lockManager().holders(lockKey(d)), 0);

        // Datastore space conservation.
        std::unordered_map<DatastoreId, Bytes> alloc;
        for (DiskId did : inv.diskIds()) {
            const VirtualDisk &disk = inv.disk(did);
            alloc[disk.datastore] += disk.allocated;
        }
        for (DatastoreId d : ds)
            EXPECT_EQ(inv.datastore(d).used(), alloc[d])
                << "datastore " << d.value;

        // Host commitment conservation.
        std::unordered_map<HostId, int> vcpus;
        std::unordered_map<HostId, Bytes> mem;
        for (VmId v : inv.vmIds()) {
            const Vm &vm = inv.vm(v);
            if (vm.powerState() == PowerState::PoweredOn) {
                ASSERT_TRUE(vm.host.valid());
                vcpus[vm.host] += vm.vcpus;
                mem[vm.host] += vm.memory;
            }
        }
        for (HostId h : hosts) {
            EXPECT_EQ(inv.host(h).committedVcpus(), vcpus[h])
                << "host " << h.value;
            EXPECT_EQ(inv.host(h).committedMemory(), mem[h]);
        }

        // Disk reference counts match actual children.
        std::unordered_map<DiskId, int> children;
        for (DiskId did : inv.diskIds()) {
            const VirtualDisk &disk = inv.disk(did);
            if (disk.parent.valid())
                children[disk.parent] += 1;
        }
        for (DiskId did : inv.diskIds())
            EXPECT_EQ(inv.disk(did).ref_count, children[did])
                << "disk " << did.value;

        // Disconnect/reconnect symmetry: every disconnect schedules
        // its reconcile, and the drain runs them all, so no agent may
        // end the storm dark or holding parked completions.
        for (HostId h : hosts) {
            EXPECT_TRUE(srv.hostAgent(h).connected())
                << "host " << h.value;
            EXPECT_EQ(srv.hostAgent(h).parkedOps(), 0u)
                << "host " << h.value;
        }

        // Registration symmetry.
        for (VmId v : inv.vmIds()) {
            const Vm &vm = inv.vm(v);
            if (vm.host.valid())
                EXPECT_TRUE(inv.host(vm.host).hasVm(v));
        }
        for (HostId h : hosts) {
            for (VmId v : inv.host(h).vms()) {
                ASSERT_TRUE(inv.hasVm(v));
                EXPECT_EQ(inv.vm(v).host, h);
            }
        }
    }

  private:
    VmId
    randomVm()
    {
        // Mix live ids with stale/bogus ones.
        if (rng.bernoulli(0.05))
            return VmId(rng.uniformInt(0, 500));
        return vms[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(vms.size()) - 1))];
    }

    void
    fireRandomOp()
    {
        // Occasionally crash a host (and schedule its recovery) —
        // abrupt state collapse racing every op in flight.
        if (rng.bernoulli(0.01)) {
            HostId victim = randomHost();
            if (!ha.isCrashed(victim) &&
                inv.host(victim).connected()) {
                ha.crashHost(victim);
                SimDuration outage = rng.uniformInt(seconds(10),
                                                    minutes(10));
                sim.schedule(outage, [this, victim] {
                    ha.recoverHost(victim);
                });
            }
            return;
        }

        // Occasionally drop a host agent's session (the host keeps
        // running) and schedule the reconnect+reconciliation — parks
        // whatever completions land during the dark window.
        if (rng.bernoulli(0.01)) {
            HostId victim = randomHost();
            if (inv.host(victim).connected() &&
                !ha.isCrashed(victim)) {
                srv.disconnectHost(victim);
                SimDuration dark = rng.uniformInt(seconds(5),
                                                  minutes(5));
                sim.schedule(dark, [this, victim] {
                    srv.reconcileHost(victim);
                });
            }
            return;
        }

        OpRequest req;
        int kind = static_cast<int>(rng.uniformInt(0, 22));
        switch (kind) {
          case 0:
          case 1: { // linked clone off the template base
            req.type = OpType::CloneLinked;
            req.vm = tmpl;
            req.host = randomHost();
            req.datastore = ds[0];
            req.base_disk = base;
            srv.submit(req, [this](const Task &t) {
                if (t.succeeded())
                    vms.push_back(t.resultVm());
            });
            return;
          }
          case 2: { // full clone
            req.type = OpType::CloneFull;
            req.vm = tmpl;
            req.host = randomHost();
            req.datastore = randomDatastore();
            srv.submit(req, [this](const Task &t) {
                if (t.succeeded())
                    vms.push_back(t.resultVm());
            });
            return;
          }
          case 3:
          case 4:
            req.type = OpType::PowerOn;
            break;
          case 5:
            req.type = OpType::PowerOff;
            break;
          case 6:
            req.type = OpType::Destroy;
            break;
          case 7:
            req.type = OpType::Snapshot;
            break;
          case 8:
            req.type = OpType::RemoveSnapshot;
            break;
          case 9: {
            req.type = OpType::Reconfigure;
            req.vcpus = static_cast<int>(rng.uniformInt(1, 64));
            req.memory = gib(rng.uniformInt(1, 64));
            break;
          }
          case 10: {
            req.type = OpType::Migrate;
            req.host = randomHost();
            break;
          }
          case 11: {
            req.type = OpType::Relocate;
            req.datastore = randomDatastore();
            break;
          }
          case 12: { // from-scratch creation
            req.type = OpType::CreateVm;
            req.host = randomHost();
            req.datastore = randomDatastore();
            req.vcpus = static_cast<int>(rng.uniformInt(1, 4));
            req.memory = gib(rng.uniformInt(1, 8));
            req.disk_size = gib(rng.uniformInt(1, 16));
            srv.submit(req, [this](const Task &t) {
                if (t.succeeded())
                    vms.push_back(t.resultVm());
            });
            return;
          }
          case 13:
            req.type = OpType::Suspend;
            break;
          case 14:
            req.type = OpType::Reset;
            break;
          case 15:
            req.type = OpType::RegisterVm;
            req.host = randomHost();
            break;
          case 16:
            req.type = OpType::UnregisterVm;
            break;
          case 17:
          case 18:
          case 19:
          case 20: { // host lifecycle
            static constexpr OpType kHostOps[] = {
                OpType::AddHost, OpType::RemoveHost,
                OpType::EnterMaintenance, OpType::ExitMaintenance};
            req.type = kHostOps[kind - 17];
            req.host = randomHost();
            srv.submit(req);
            return;
          }
          case 21: { // replicate a disk, sometimes to no datastore
            req.type = OpType::ReplicateBaseDisk;
            req.base_disk = randomDisk();
            req.host = randomHost();
            req.datastore = rng.bernoulli(0.1) ? DatastoreId()
                                               : randomDatastore();
            srv.submit(req);
            return;
          }
          case 22:
            req.type = OpType::ConsolidateDisk;
            req.base_disk = randomDisk();
            req.host = randomHost();
            srv.submit(req);
            return;
        }
        req.vm = randomVm();
        srv.submit(req);
    }

    HostId
    randomHost()
    {
        return hosts[static_cast<std::size_t>(rng.uniformInt(0, 2))];
    }

    DatastoreId
    randomDatastore()
    {
        return ds[static_cast<std::size_t>(rng.uniformInt(0, 1))];
    }

    /** A disk of a random VM (flat, delta or snapshot), or the base. */
    DiskId
    randomDisk()
    {
        VmId v = randomVm();
        if (!inv.hasVm(v) || inv.vm(v).disks.empty())
            return base;
        const std::vector<DiskId> &d = inv.vm(v).disks;
        return d[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(d.size()) - 1))];
    }

    Simulator sim;
    StatRegistry stats;
    Inventory inv;
    Network net;
    ManagementServer srv;
    HaManager ha;
    Rng rng;

    std::vector<HostId> hosts;
    std::vector<DatastoreId> ds;
    std::vector<VmId> vms;
    VmId tmpl;
    DiskId base;
};

} // namespace vcp

#endif // VCP_TESTS_OP_FUZZER_HH

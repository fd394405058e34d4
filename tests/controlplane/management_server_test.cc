/**
 * @file
 * Pipeline-level behaviour of the management server: phase
 * accounting, admission limits, lock serialization, statistics,
 * observers, and task retention.
 */

#include "cp_fixture.hh"

#include "sim/logging.hh"
#include "telemetry/health.hh"

namespace vcp {
namespace {

using ServerTest = ControlPlaneFixture;

TEST_F(ServerTest, PhaseTimesSumToLatency)
{
    VmId vm = makeVm(h0, ds0);
    Task t = powerOn(vm);
    SimDuration sum = 0;
    for (std::size_t p = 0; p < kNumTaskPhases; ++p)
        sum += t.phaseTime(static_cast<TaskPhase>(p));
    // Phases cover the full pipeline; allow tiny rounding slack.
    EXPECT_NEAR(static_cast<double>(sum),
                static_cast<double>(t.latency()),
                static_cast<double>(msec(1)));
    EXPECT_GT(t.phaseTime(TaskPhase::Api), 0);
    EXPECT_GT(t.phaseTime(TaskPhase::Db), 0);
    EXPECT_GT(t.phaseTime(TaskPhase::HostAgent), 0);
    EXPECT_GT(t.phaseTime(TaskPhase::Finalize), 0);
}

TEST_F(ServerTest, CountersTrackOutcomes)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    powerOn(vm); // fails: already on
    EXPECT_EQ(srv->opsSubmitted(), 2u);
    EXPECT_EQ(srv->opsCompleted(), 1u);
    EXPECT_EQ(srv->opsFailed(), 1u);
    EXPECT_EQ(stats->counter("cp.ops.completed").value(), 1u);
    EXPECT_EQ(stats->counter("cp.ops.failed").value(), 1u);
    EXPECT_EQ(stats->counter("cp.errors.invalid-state").value(), 1u);
    EXPECT_EQ(srv->latencyHistogram(OpType::PowerOn).count(), 2u);
}

TEST_F(ServerTest, TaskRecordsRetainedByDefault)
{
    VmId vm = makeVm(h0, ds0);
    TaskId id = srv->submit([&] {
        OpRequest req;
        req.type = OpType::PowerOn;
        req.vm = vm;
        return req;
    }());
    sim->run();
    ASSERT_TRUE(srv->hasTask(id));
    EXPECT_TRUE(srv->task(id).succeeded());
}

TEST_F(ServerTest, TaskRecordsPurgedWhenDisabled)
{
    ManagementServerConfig cfg;
    cfg.retain_finished_tasks = false;
    build(cfg);
    VmId vm = makeVm(h0, ds0);
    OpRequest req;
    req.type = OpType::PowerOn;
    req.vm = vm;
    TaskId id = srv->submit(req);
    sim->run();
    EXPECT_FALSE(srv->hasTask(id));
}

TEST_F(ServerTest, UnknownTaskLookupPanics)
{
    EXPECT_THROW(srv->task(TaskId(777)), PanicError);
}

TEST_F(ServerTest, TaskObserverSeesEveryCompletion)
{
    int observed = 0;
    srv->setTaskObserver([&](const Task &) { ++observed; });
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    powerOn(vm); // failure is observed too
    EXPECT_EQ(observed, 2);
}

TEST_F(ServerTest, DispatchWidthBoundsConcurrency)
{
    ManagementServerConfig cfg;
    cfg.dispatch_width = 2;
    build(cfg);
    // Submit many power-ons; the scheduler must never run more than
    // two at once.
    std::vector<VmId> vms;
    for (int i = 0; i < 8; ++i)
        vms.push_back(makeVm(i % 2 ? h0 : h1, ds0, gib(1)));
    int max_in_flight = 0;
    for (VmId vm : vms) {
        OpRequest req;
        req.type = OpType::PowerOn;
        req.vm = vm;
        srv->submit(req);
    }
    // Probe in-flight at every millisecond.
    for (int t = 1; t < 60000; t += 1) {
        sim->schedule(msec(t), [&] {
            max_in_flight =
                std::max(max_in_flight, srv->scheduler().inFlight());
        });
    }
    sim->run();
    EXPECT_LE(max_in_flight, 2);
    EXPECT_EQ(srv->opsCompleted(), 8u);
}

TEST_F(ServerTest, ExclusiveVmLockSerializesOpsOnSameVm)
{
    VmId vm = makeVm(h0, ds0);
    // Submit a power-off one second into the power-on's execution
    // (the power-on holds the VM lock through its multi-second host
    // phase).  The power-off must wait for the lock, then see
    // PoweredOn and succeed.
    OpRequest on;
    on.type = OpType::PowerOn;
    on.vm = vm;
    OpRequest off;
    off.type = OpType::PowerOff;
    off.vm = vm;
    int done = 0;
    srv->submit(on, [&](const Task &t) {
        EXPECT_TRUE(t.succeeded());
        ++done;
    });
    sim->schedule(seconds(1), [&, off] {
        srv->submit(off, [&](const Task &t) {
            EXPECT_TRUE(t.succeeded());
            EXPECT_GT(t.phaseTime(TaskPhase::Locks), 0);
            ++done;
        });
    });
    sim->run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(inv->vm(vm).powerState(), PowerState::PoweredOff);
}

TEST_F(ServerTest, ConcurrentClonesFromOneTemplateShareReadLock)
{
    // Multiple concurrent linked clones from one template must all
    // succeed (shared source lock), not serialize into failures.
    int ok = 0;
    for (int i = 0; i < 6; ++i) {
        OpRequest req;
        req.type = OpType::CloneLinked;
        req.vm = tmpl;
        req.host = (i % 2) ? h0 : h1;
        req.datastore = ds0;
        req.base_disk = base;
        srv->submit(req, [&](const Task &t) {
            if (t.succeeded())
                ++ok;
        });
    }
    sim->run();
    EXPECT_EQ(ok, 6);
    EXPECT_EQ(inv->disk(base).ref_count, 6);
}

TEST_F(ServerTest, HostAgentSlotsBoundPerHostConcurrency)
{
    ManagementServerConfig cfg;
    cfg.agent.op_slots = 1;
    build(cfg);
    // Two clones on the same host serialize on the single agent
    // slot; on different hosts they overlap.
    auto run_pair = [&](HostId a, HostId b) {
        SimTime start = sim->now();
        int pending = 2;
        SimTime finish = 0;
        for (HostId h : {a, b}) {
            OpRequest req;
            req.type = OpType::CloneLinked;
            req.vm = tmpl;
            req.host = h;
            req.datastore = ds0;
            req.base_disk = base;
            srv->submit(req, [&](const Task &t) {
                EXPECT_TRUE(t.succeeded());
                if (--pending == 0)
                    finish = sim->now();
            });
        }
        sim->run();
        return finish - start;
    };
    SimDuration same_host = run_pair(h0, h0);
    SimDuration diff_host = run_pair(h0, h1);
    EXPECT_GT(same_host, diff_host + seconds(1));
}

TEST_F(ServerTest, DatastoreSlotsBoundDataOpsPerDatastore)
{
    ManagementServerConfig cfg;
    cfg.datastore_slots = 1;
    build(cfg);
    // Two full clones to the same datastore serialize on its slot
    // even though they run on different hosts.
    SimTime finish = 0;
    int pending = 2;
    for (HostId h : {h0, h1}) {
        OpRequest req;
        req.type = OpType::CloneFull;
        req.vm = tmpl;
        req.host = h;
        req.datastore = ds1;
        srv->submit(req, [&](const Task &t) {
            EXPECT_TRUE(t.succeeded());
            if (--pending == 0)
                finish = sim->now();
        });
    }
    sim->run();
    // Each copy is 4 GiB over a 1.25 GB/s fabric (~3.4 s); strictly
    // serialized they take > 6.8 s + host work.
    EXPECT_GT(finish, seconds(7));
}

TEST_F(ServerTest, BusyDatastoreSlotsAreAControlPlaneVerdict)
{
    // Hold one of ds0's copy slots for the whole run with nothing
    // else running: the datastore slots are the busiest resource, and
    // the health report files them under the control plane, like
    // collectUtilizations() does.
    srv->datastoreSlots(ds0).submit(hours(1), [] {});
    sim->run();

    TelemetryRegistry reg;
    reg.setUtilizations([&] { return collectUtilizations(*srv); });
    HealthReport hr = buildHealthReport(reg, sim->now(), {}, {});
    EXPECT_EQ(hr.dominant, "datastore-slots(max)");
    EXPECT_TRUE(hr.control_plane_limited);
    EXPECT_NE(healthText(hr).find("dominant bottleneck: "
                                  "datastore-slots(max) (control plane)"),
              std::string::npos);
}

TEST_F(ServerTest, FailureRollbackReleasesLocks)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    powerOn(vm); // fails
    // Locks fully released afterwards.
    EXPECT_EQ(srv->lockManager().holders(lockKey(vm)), 0);
    EXPECT_EQ(srv->lockManager().holders(lockKey(h0)), 0);
    // And a later op works fine.
    OpRequest off;
    off.type = OpType::PowerOff;
    off.vm = vm;
    EXPECT_TRUE(runOp(off).succeeded());
}

TEST_F(ServerTest, BytesMovedAccumulatesAcrossOps)
{
    OpRequest full;
    full.type = OpType::CloneFull;
    full.vm = tmpl;
    full.host = h0;
    full.datastore = ds0;
    runOp(full);
    runOp(full);
    EXPECT_EQ(srv->bytesMoved(), 2 * gib(4));
    EXPECT_EQ(stats->counter("cp.bytes_moved").value(),
              static_cast<std::uint64_t>(2 * gib(4)));
}

TEST_F(ServerTest, PhaseSummariesPopulated)
{
    VmId vm = makeVm(h0, ds0);
    powerOn(vm);
    EXPECT_EQ(
        stats->summary("cp.phase_us.power-on.host-agent").count(),
        1u);
    EXPECT_GT(stats->summary("cp.phase_us.power-on.db").mean(), 0.0);
}

TEST_F(ServerTest, QueuePhaseGrowsUnderOverload)
{
    ManagementServerConfig cfg;
    cfg.dispatch_width = 1;
    build(cfg);
    std::vector<VmId> vms;
    for (int i = 0; i < 4; ++i)
        vms.push_back(makeVm(h0, ds0, gib(1)));
    SimDuration last_queue = 0;
    int done = 0;
    for (VmId vm : vms) {
        OpRequest req;
        req.type = OpType::PowerOn;
        req.vm = vm;
        srv->submit(req, [&](const Task &t) {
            last_queue = t.phaseTime(TaskPhase::Queue);
            ++done;
        });
    }
    sim->run();
    EXPECT_EQ(done, 4);
    // The last task queued behind three ~2.5 s ops.
    EXPECT_GT(last_queue, seconds(4));
}

} // namespace
} // namespace vcp

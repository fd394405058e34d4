/**
 * @file
 * Tests for the per-tenant rate limiter, task cancellation, and the
 * background database load.
 */

#include "cp_fixture.hh"

#include "sim/logging.hh"
#include "telemetry/telemetry.hh"

namespace vcp {
namespace {

TEST(RateLimiterTest, DisabledAdmitsEverything)
{
    Simulator sim;
    TenantRateLimiter rl(sim, RateLimitConfig{});
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(rl.tryAdmit(TenantId(1)));
    EXPECT_EQ(rl.rejections(), 0u);
}

TEST(RateLimiterTest, BurstThenRejects)
{
    Simulator sim;
    RateLimitConfig cfg;
    cfg.enabled = true;
    cfg.ops_per_second = 1.0;
    cfg.burst = 5.0;
    TenantRateLimiter rl(sim, cfg);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(rl.tryAdmit(TenantId(1)));
    EXPECT_FALSE(rl.tryAdmit(TenantId(1)));
    EXPECT_EQ(rl.rejections(), 1u);
}

TEST(RateLimiterTest, RefillsOverTime)
{
    Simulator sim;
    RateLimitConfig cfg;
    cfg.enabled = true;
    cfg.ops_per_second = 2.0;
    cfg.burst = 2.0;
    TenantRateLimiter rl(sim, cfg);
    EXPECT_TRUE(rl.tryAdmit(TenantId(1)));
    EXPECT_TRUE(rl.tryAdmit(TenantId(1)));
    EXPECT_FALSE(rl.tryAdmit(TenantId(1)));
    sim.runUntil(seconds(1)); // refills 2 tokens
    EXPECT_TRUE(rl.tryAdmit(TenantId(1)));
    EXPECT_TRUE(rl.tryAdmit(TenantId(1)));
    EXPECT_FALSE(rl.tryAdmit(TenantId(1)));
}

TEST(RateLimiterTest, TenantsAreIndependent)
{
    Simulator sim;
    RateLimitConfig cfg;
    cfg.enabled = true;
    cfg.ops_per_second = 1.0;
    cfg.burst = 1.0;
    TenantRateLimiter rl(sim, cfg);
    EXPECT_TRUE(rl.tryAdmit(TenantId(1)));
    EXPECT_FALSE(rl.tryAdmit(TenantId(1)));
    EXPECT_TRUE(rl.tryAdmit(TenantId(2)));
}

TEST(RateLimiterTest, InfrastructureOpsBypass)
{
    Simulator sim;
    RateLimitConfig cfg;
    cfg.enabled = true;
    cfg.ops_per_second = 0.001;
    cfg.burst = 1.0;
    TenantRateLimiter rl(sim, cfg);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(rl.tryAdmit(TenantId())); // invalid = infra
}

TEST(RateLimiterTest, InvalidConfigFatal)
{
    Simulator sim;
    RateLimitConfig cfg;
    cfg.enabled = true;
    cfg.ops_per_second = 0.0;
    EXPECT_THROW(TenantRateLimiter(sim, cfg), FatalError);
}

class ServerLimitsTest : public ControlPlaneFixture
{};

TEST_F(ServerLimitsTest, RateLimitedSubmitFailsTask)
{
    ManagementServerConfig cfg;
    cfg.rate_limit.enabled = true;
    cfg.rate_limit.ops_per_second = 0.001;
    cfg.rate_limit.burst = 1.0;
    build(cfg);
    VmId vm = makeVm(h0, ds0);

    OpRequest req;
    req.type = OpType::PowerOn;
    req.vm = vm;
    req.tenant = TenantId(42);
    Task first = runOp(req);
    EXPECT_TRUE(first.succeeded());

    // Power it off out-of-band so the op itself would be valid.
    OpRequest off;
    off.type = OpType::PowerOff;
    off.vm = vm;
    off.tenant = TenantId(42);
    Task second = runOp(off);
    EXPECT_FALSE(second.succeeded());
    EXPECT_EQ(second.error(), TaskError::RateLimited);
    EXPECT_EQ(stats->counter("cp.errors.rate-limited").value(), 1u);
    // The VM is untouched.
    EXPECT_EQ(inv->vm(vm).powerState(), PowerState::PoweredOn);
}

TEST_F(ServerLimitsTest, RateLimitedOpsCountInPerOpLatency)
{
    ManagementServerConfig cfg;
    cfg.rate_limit.enabled = true;
    cfg.rate_limit.ops_per_second = 0.001;
    cfg.rate_limit.burst = 1.0;
    build(cfg);
    TelemetryRegistry telem;
    srv->attachTelemetry(&telem);
    std::uint64_t observed = 0;
    srv->setTaskObserver([&](const Task &) { ++observed; });
    VmId vm = makeVm(h0, ds0);

    OpRequest on;
    on.type = OpType::PowerOn;
    on.vm = vm;
    on.tenant = TenantId(42);
    EXPECT_TRUE(runOp(on).succeeded());
    OpRequest off;
    off.type = OpType::PowerOff;
    off.vm = vm;
    off.tenant = TenantId(42);
    EXPECT_EQ(runOp(off).error(), TaskError::RateLimited);

    // The reject is a finished op like any other: its op type's
    // latency cell counts it, as the observer and cp.op_us do.
    EXPECT_EQ(srv->latencyHistogram(OpType::PowerOff).count(), 1u);
    std::uint64_t cells = 0;
    for (std::size_t i = 0; i < kNumOpTypes; ++i)
        cells += srv->latencyHistogram(static_cast<OpType>(i)).count();
    EXPECT_EQ(observed, 2u);
    EXPECT_EQ(cells, observed);
    EXPECT_EQ(telem.mergedHistogram("cp.op_us").count(), observed);
}

TEST_F(ServerLimitsTest, CancelPendingTaskFailsItCleanly)
{
    ManagementServerConfig cfg;
    cfg.dispatch_width = 1;
    build(cfg);
    VmId vm1 = makeVm(h0, ds0);
    VmId vm2 = makeVm(h0, ds0);

    OpRequest a;
    a.type = OpType::PowerOn;
    a.vm = vm1;
    srv->submit(a);

    OpRequest b;
    b.type = OpType::PowerOn;
    b.vm = vm2;
    std::optional<Task> second;
    TaskId second_id =
        srv->submit(b, [&](const Task &t) { second = t; });

    // Cancel while it waits behind the first task.
    sim->schedule(msec(200), [&] {
        EXPECT_TRUE(srv->cancel(second_id));
    });
    sim->run();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->error(), TaskError::Cancelled);
    // The cancelled op never touched the VM.
    EXPECT_EQ(inv->vm(vm2).powerState(), PowerState::PoweredOff);
    // No leaked locks or dispatch slots.
    EXPECT_EQ(srv->scheduler().inFlight(), 0);
    EXPECT_EQ(srv->lockManager().holders(lockKey(vm2)), 0);
}

TEST_F(ServerLimitsTest, CancelRunningTaskHasNoEffect)
{
    VmId vm = makeVm(h0, ds0);
    OpRequest req;
    req.type = OpType::PowerOn;
    req.vm = vm;
    std::optional<Task> result;
    TaskId id = srv->submit(req, [&](const Task &t) { result = t; });
    // Request cancel after the task has certainly dispatched.
    sim->schedule(seconds(1), [&] { srv->cancel(id); });
    sim->run();
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->succeeded());
}

TEST_F(ServerLimitsTest, CancelUnknownOrFinishedFails)
{
    EXPECT_FALSE(srv->cancel(TaskId(999)));
    VmId vm = makeVm(h0, ds0);
    Task t = powerOn(vm);
    EXPECT_FALSE(srv->cancel(t.id()));
}

TEST_F(ServerLimitsTest, BackgroundDbLoadRunsPeriodically)
{
    ManagementServerConfig cfg;
    cfg.background_db_period = minutes(1);
    cfg.background_db_txns = 10;
    build(cfg);
    sim->runUntil(minutes(5) + seconds(30));
    EXPECT_GE(stats->counter("cp.db.background_txns").value(), 40u);
    EXPECT_GE(srv->database().txnsCommitted(), 40u);
}

TEST_F(ServerLimitsTest, BackgroundDbLoadSlowsForegroundOps)
{
    // Heavy rollup load on one connection vs none.
    auto mean_power_on = [this](SimDuration period, int txns) {
        ManagementServerConfig cfg;
        cfg.db.connections = 1;
        cfg.background_db_period = period;
        cfg.background_db_txns = txns;
        build(cfg);
        VmId vm = makeVm(h0, ds0);
        for (int i = 0; i < 10; ++i) {
            OpRequest req;
            req.type = (i % 2 == 0) ? OpType::PowerOn
                                    : OpType::PowerOff;
            req.vm = vm;
            srv->submit(req);
            sim->runUntil(sim->now() + minutes(1));
        }
        return srv->latencyHistogram(OpType::PowerOn).mean();
    };
    double quiet = mean_power_on(0, 1);
    double busy = mean_power_on(seconds(10), 400);
    EXPECT_GT(busy, quiet * 1.2);
}

} // namespace
} // namespace vcp

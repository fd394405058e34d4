/**
 * @file
 * Tests for the management server's background database load.
 */

#include "cp_fixture.hh"

namespace vcp {
namespace {

class ServerLimitsTest : public ControlPlaneFixture
{};

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

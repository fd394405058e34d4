/**
 * @file
 * Tests for the analysis layer: M/M/c analytics, latency breakdown,
 * bottleneck attribution, and report tables.
 */

#include <gtest/gtest.h>

#include "analysis/bottleneck.hh"
#include "analysis/breakdown.hh"
#include "analysis/queueing.hh"
#include "analysis/report.hh"
#include "sim/logging.hh"

namespace vcp {
namespace {

TEST(QueueingTest, MM1KnownValues)
{
    // M/M/1 with rho = 0.5: W = 1/(mu - lambda) = 2/mu, Lq = 0.5.
    MmcResult r = mmcAnalysis(0.5, 1.0, 1);
    EXPECT_NEAR(r.rho, 0.5, 1e-12);
    EXPECT_NEAR(r.p_wait, 0.5, 1e-12); // M/M/1: P(wait) = rho
    EXPECT_NEAR(r.w, 2.0, 1e-9);
    EXPECT_NEAR(r.wq, 1.0, 1e-9);
    EXPECT_NEAR(r.lq, 0.5, 1e-9);
    EXPECT_NEAR(r.l, 1.0, 1e-9);
}

TEST(QueueingTest, MM2KnownValues)
{
    // M/M/2, lambda = 1, mu = 1 (a = 1, rho = 0.5):
    // ErlangC = 1/3, Wq = 1/3, W = 4/3.
    MmcResult r = mmcAnalysis(1.0, 1.0, 2);
    EXPECT_NEAR(r.p_wait, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(r.wq, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(r.w, 4.0 / 3.0, 1e-9);
}

TEST(QueueingTest, UnstableSystemFatal)
{
    EXPECT_THROW(mmcAnalysis(2.0, 1.0, 1), FatalError);
    EXPECT_THROW(mmcAnalysis(2.0, 1.0, 2), FatalError);
}

TEST(QueueingTest, ErlangCBoundsAndMonotonicity)
{
    // More servers -> lower wait probability at fixed load a.
    double prev = 1.0;
    for (int c = 2; c <= 10; ++c) {
        double p = erlangC(1.5, c);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        EXPECT_LT(p, prev);
        prev = p;
    }
    EXPECT_DOUBLE_EQ(erlangC(0.0, 3), 0.0);
}

Task
finishedTask(OpType type, SimDuration db, SimDuration host,
             SimDuration copy, bool ok = true)
{
    OpRequest req;
    req.type = type;
    Task t(TaskId(1), req);
    t.markSubmitted(0);
    t.markStarted(0);
    t.addPhaseTime(TaskPhase::Db, db);
    t.addPhaseTime(TaskPhase::HostAgent, host);
    t.addPhaseTime(TaskPhase::DataCopy, copy);
    t.markFinished(db + host + copy,
                   ok ? TaskError::None : TaskError::InvalidState);
    return t;
}

TEST(BreakdownTest, ComputesPhaseMeansAndFractions)
{
    OpTrace trace;
    trace.add(finishedTask(OpType::CloneFull, msec(100), seconds(1),
                           seconds(9)));
    trace.add(finishedTask(OpType::CloneFull, msec(300), seconds(1),
                           seconds(11)));
    PhaseBreakdown b = computeBreakdown(trace, OpType::CloneFull);
    EXPECT_EQ(b.count, 2u);
    EXPECT_DOUBLE_EQ(
        b.mean_us[static_cast<std::size_t>(TaskPhase::Db)],
        static_cast<double>(msec(200)));
    EXPECT_DOUBLE_EQ(
        b.mean_us[static_cast<std::size_t>(TaskPhase::DataCopy)],
        static_cast<double>(seconds(10)));
    EXPECT_NEAR(b.fraction(TaskPhase::DataCopy),
                10.0 / 11.2, 1e-9);
}

TEST(BreakdownTest, IgnoresFailuresAndOtherTypes)
{
    OpTrace trace;
    trace.add(finishedTask(OpType::CloneFull, msec(100), seconds(1),
                           seconds(9), /*ok=*/false));
    trace.add(finishedTask(OpType::PowerOn, msec(10), seconds(2), 0));
    PhaseBreakdown b = computeBreakdown(trace, OpType::CloneFull);
    EXPECT_EQ(b.count, 0u);
    EXPECT_DOUBLE_EQ(b.total_mean_us, 0.0);
    EXPECT_DOUBLE_EQ(b.fraction(TaskPhase::Db), 0.0);
}

TEST(BreakdownTest, TableHasRowPerTypeAndPhaseColumns)
{
    OpTrace trace;
    trace.add(finishedTask(OpType::CloneFull, msec(100), seconds(1),
                           seconds(9)));
    trace.add(finishedTask(OpType::CloneLinked, msec(120), seconds(4),
                           0));
    Table t = breakdownTable(
        trace, {OpType::CloneFull, OpType::CloneLinked});
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numColumns(), 2u + kNumTaskPhases + 1);
    EXPECT_EQ(t.at(0, 0), "clone-full");
    EXPECT_EQ(t.at(1, 0), "clone-linked");
}

TEST(BottleneckTest, IdentifiesBusiestResource)
{
    std::vector<ResourceUtilization> u = {
        {"db-connections", true, 0.2},
        {"datastore-pipes(max)", false, 0.9},
        {"api-threads", true, 0.05},
    };
    EXPECT_EQ(bottleneckOf(u).name, "datastore-pipes(max)");
    EXPECT_FALSE(bottleneckOf(u).control_plane);
    u[0].utilization = 0.95;
    EXPECT_EQ(bottleneckOf(u).name, "db-connections");
    EXPECT_TRUE(bottleneckOf(u).control_plane);
}

TEST(BottleneckTest, TiesGoToTheFirstInListOrder)
{
    std::vector<ResourceUtilization> u = {
        {"dispatch-slots", true, 0.4},
        {"network-fabric", false, 0.7},
        {"datastore-pipes(max)", false, 0.7},
    };
    EXPECT_EQ(bottleneckOf(u).name, "network-fabric");
    EXPECT_EQ(utilizationTable(u).at(0, 0), "network-fabric");
}

TEST(BottleneckTest, AllIdleReportsNone)
{
    std::vector<ResourceUtilization> u = {
        {"a", true, 0.0},
        {"b", false, 0.0},
    };
    EXPECT_EQ(bottleneckOf(u).name, "none");
    EXPECT_FALSE(bottleneckOf(u).control_plane);
    EXPECT_EQ(bottleneckOf({}).name, "none");
}

TEST(BottleneckTest, TableSortedByUtilization)
{
    std::vector<ResourceUtilization> u = {
        {"low", true, 0.1},
        {"high", false, 0.8},
        {"mid", true, 0.5},
    };
    Table t = utilizationTable(u);
    EXPECT_EQ(t.at(0, 0), "high");
    EXPECT_EQ(t.at(0, 1), "data");
    EXPECT_EQ(t.at(1, 0), "mid");
    EXPECT_EQ(t.at(2, 0), "low");
}

TEST(ReportTest, RateSeriesTableAlignsSeries)
{
    TimeSeries a(hours(1)), b(hours(1));
    a.add(minutes(30));
    a.add(minutes(40));
    a.add(hours(1) + minutes(10));
    b.add(minutes(10));
    Table t = rateSeriesTable({&a, &b}, {"prov", "destr"});
    ASSERT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.at(0, 1), "2.0"); // 2 events in hour 0
    EXPECT_EQ(t.at(0, 2), "1.0");
    EXPECT_EQ(t.at(1, 1), "1.0");
    EXPECT_EQ(t.at(1, 2), "0.0"); // b has no bucket 1
}

TEST(ReportTest, RateSeriesTableValidatesArgs)
{
    TimeSeries a(hours(1));
    EXPECT_THROW(rateSeriesTable({}, {}), PanicError);
    EXPECT_THROW(rateSeriesTable({&a}, {"x", "y"}), PanicError);
}

} // namespace
} // namespace vcp

/**
 * @file
 * Tests for the analysis layer: M/M/c analytics, latency breakdown,
 * bottleneck and phase attribution, and report tables.
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
    t.addPhaseTime(TaskPhase::Db, db);
    t.addPhaseTime(TaskPhase::HostAgent, host);
    if (copy > 0)
        t.addPhaseTime(TaskPhase::DataCopy, copy);
    t.markFinished(db + host + copy,
                   ok ? TaskError::None : TaskError::InvalidState);
    return t;
}

/** A server whose latency cells the tests fill by their dump names. */
struct CellServer
{
    /** Add @p t to the cells, as ManagementServer::finish() does. */
    void
    record(const Task &t)
    {
        std::string op = opTypeName(t.type());
        stats.latency("cp.latency_us." + op).add(t.latency());
        for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
            auto phase = static_cast<TaskPhase>(p);
            if (t.enteredPhase(phase))
                stats.latency("cp.phase_us." + op + "." +
                              taskPhaseName(phase))
                    .add(t.phaseTime(phase));
        }
    }

    Simulator sim;
    Inventory inv{sim};
    Network net{sim, NetworkConfig{}};
    StatRegistry stats;
    ManagementServer srv{sim, inv, net, stats};
};

/** Column of phase @p p in a breakdown table (after op and count). */
std::size_t
col(TaskPhase p)
{
    return 2 + static_cast<std::size_t>(p);
}

constexpr std::size_t kTotalCol = 2 + kNumTaskPhases;

TEST(BreakdownTest, ComputesPhaseMeansAndTotal)
{
    CellServer b;
    b.record(finishedTask(OpType::CloneFull, msec(100), seconds(1),
                          seconds(9)));
    b.record(finishedTask(OpType::CloneFull, msec(300), seconds(1),
                          seconds(11)));
    Table t = breakdownTable(b.srv, {OpType::CloneFull});
    ASSERT_EQ(t.numRows(), 1u);
    EXPECT_EQ(t.at(0, 1), "2");
    EXPECT_EQ(t.at(0, col(TaskPhase::Db)), "200.00");
    EXPECT_EQ(t.at(0, col(TaskPhase::HostAgent)), "1000.00");
    EXPECT_EQ(t.at(0, col(TaskPhase::DataCopy)), "10000.00");
    EXPECT_EQ(t.at(0, col(TaskPhase::Api)), "0.00"); // never entered
    EXPECT_EQ(t.at(0, kTotalCol), "11200.00");
}

TEST(BreakdownTest, CountsFailuresAndIgnoresOtherTypes)
{
    // A failed op is averaged in; its skipped phases count as zero.
    CellServer b;
    b.record(finishedTask(OpType::CloneFull, msec(100), seconds(1),
                          seconds(9)));
    b.record(finishedTask(OpType::CloneFull, msec(300), seconds(1), 0,
                          /*ok=*/false));
    b.record(finishedTask(OpType::PowerOn, msec(10), seconds(2), 0));
    Table t =
        breakdownTable(b.srv, {OpType::CloneFull, OpType::Destroy});
    ASSERT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.at(0, 1), "2");
    EXPECT_EQ(t.at(0, col(TaskPhase::Db)), "200.00");
    EXPECT_EQ(t.at(0, col(TaskPhase::DataCopy)), "4500.00");
    EXPECT_EQ(t.at(0, kTotalCol), "5700.00");
    // An op type with no finished op is an all-zero row.
    EXPECT_EQ(t.at(1, 1), "0");
    EXPECT_EQ(t.at(1, col(TaskPhase::Db)), "0.00");
    EXPECT_EQ(t.at(1, kTotalCol), "0.00");
}

TEST(BreakdownTest, TableHasRowPerTypeAndPhaseColumns)
{
    CellServer b;
    b.record(finishedTask(OpType::CloneFull, msec(100), seconds(1),
                          seconds(9)));
    b.record(finishedTask(OpType::CloneLinked, msec(120), seconds(4),
                          0));
    Table t = breakdownTable(
        b.srv, {OpType::CloneFull, OpType::CloneLinked});
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

/** Ten clone-full ops: api 0.1 ms each, db 1..10 ms (55 ms). */
struct TenClones : CellServer
{
    TenClones()
    {
        for (int i = 1; i <= 10; ++i) {
            stats.latency("cp.latency_us.clone-full").add(100 + i * 1000);
            stats.latency("cp.phase_us.clone-full.api").add(100);
            stats.latency("cp.phase_us.clone-full.db").add(i * 1000);
        }
    }
};

TEST(SpanBreakdown, TableHasPerPhaseRowsAndTotals)
{
    TenClones c;
    Table table = spanBreakdownTable(c.srv);
    EXPECT_EQ(table.numRows(), 3u); // api, db, total

    std::string text = table.toText();
    // Only the op with samples appears, with its sampled phases and
    // a whole-op total row.
    EXPECT_NE(text.find("clone-full"), std::string::npos);
    EXPECT_EQ(text.find("power-on"), std::string::npos);
    EXPECT_NE(text.find("api"), std::string::npos);
    EXPECT_NE(text.find("db"), std::string::npos);
    EXPECT_EQ(text.find("queue"), std::string::npos);
    EXPECT_NE(text.find("total"), std::string::npos);
}

TEST(PhaseAttribution, FractionsSumToOneSortedByTotal)
{
    TenClones c;
    auto attrib = attributePhases(c.srv);

    ASSERT_EQ(attrib.size(), kNumTaskPhases);
    // Sorted by total time descending: db >> api > the idle phases.
    EXPECT_EQ(attrib[0].phase, "db");
    EXPECT_EQ(attrib[1].phase, "api");
    EXPECT_NEAR(attrib[0].total_ms, 55.0, 1e-9);
    EXPECT_NEAR(attrib[1].total_ms, 1.0, 1e-9);
    EXPECT_EQ(attrib[2].total_ms, 0.0);

    double sum = 0;
    for (const auto &a : attrib)
        sum += a.fraction;
    EXPECT_NEAR(sum, 1.0, 1e-9);

    EXPECT_EQ(dominantPhase(c.srv), "db");
}

TEST(PhaseAttribution, IdleServerHasNoDominantPhase)
{
    Simulator sim;
    Inventory inv(sim);
    Network net(sim, NetworkConfig{});
    StatRegistry stats;
    ManagementServer srv(sim, inv, net, stats);
    EXPECT_EQ(dominantPhase(srv), "none");
    for (const PhaseAttribution &a : attributePhases(srv))
        EXPECT_EQ(a.total_ms, 0.0);
    EXPECT_EQ(stats.toCsv(), "name,kind,field,value\n"); // none created
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

/**
 * @file
 * Tests for trace recording and the CSV writers.
 */

#include <gtest/gtest.h>

#include <string>

#include "workload/trace.hh"

namespace vcp {
namespace {

TEST(ActionTraceTest, CsvHasOneLinePerAction)
{
    ActionTrace t;
    EXPECT_EQ(t.toCsv(), "time_us,action,tenant,template\n");
    t.add({seconds(1), CloudAction::Deploy, 3, 1});
    t.add({seconds(2), CloudAction::PowerCycle, 0, 0});
    t.add({seconds(3), CloudAction::EarlyUndeploy, 7, 2});
    EXPECT_EQ(t.toCsv(), "time_us,action,tenant,template\n"
                         "1000000,deploy,3,1\n"
                         "2000000,power-cycle,0,0\n"
                         "3000000,early-undeploy,7,2\n");
}

TEST(OpTraceTest, RecordsTaskFields)
{
    OpRequest req;
    req.type = OpType::CloneLinked;
    Task task(TaskId(1), req);
    task.markSubmitted(seconds(10));
    task.addPhaseTime(TaskPhase::Db, msec(100));
    task.addPhaseTime(TaskPhase::HostAgent, seconds(2));
    task.markFinished(seconds(14), TaskError::None);

    OpTrace trace;
    trace.add(task);
    ASSERT_EQ(trace.size(), 1u);
    const OpRecord &r = trace.all()[0];
    EXPECT_EQ(r.submitted, seconds(10));
    EXPECT_EQ(r.type, OpType::CloneLinked);
    EXPECT_EQ(r.latency, seconds(4));
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.phases[static_cast<std::size_t>(TaskPhase::Db)],
              msec(100));
}

TEST(OpTraceTest, CsvHasOneLinePerOp)
{
    OpTrace trace;
    OpRequest req;
    req.type = OpType::CloneFull;
    Task task(TaskId(1), req);
    task.markSubmitted(seconds(5));
    task.addPhaseTime(TaskPhase::DataCopy, seconds(30));
    task.markFinished(seconds(40), TaskError::OutOfSpace);
    trace.add(task);

    std::string header = "submitted_us,op,latency_us,success,error";
    std::string row = "5000000,clone-full,35000000,0,out-of-space";
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        auto phase = static_cast<TaskPhase>(p);
        header += std::string(",") + taskPhaseName(phase) + "_us";
        row += phase == TaskPhase::DataCopy ? ",30000000" : ",0";
    }
    EXPECT_EQ(trace.toCsv(), header + "\n" + row + "\n");
}

} // namespace
} // namespace vcp

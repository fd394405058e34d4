/**
 * @file
 * Tests for trace recording and CSV round-tripping.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "workload/trace.hh"

namespace vcp {
namespace {

TEST(ActionTraceTest, CsvRoundTrip)
{
    ActionTrace t;
    t.add({seconds(1), CloudAction::Deploy, 3, 1});
    t.add({seconds(2), CloudAction::PowerCycle, 0, 0});
    t.add({seconds(3), CloudAction::EarlyUndeploy, 7, 2});

    ActionTrace back = ActionTrace::fromCsv(t.toCsv());
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.all()[0].time, seconds(1));
    EXPECT_EQ(back.all()[0].action, CloudAction::Deploy);
    EXPECT_EQ(back.all()[0].tenant_index, 3);
    EXPECT_EQ(back.all()[0].template_index, 1);
    EXPECT_EQ(back.all()[2].action, CloudAction::EarlyUndeploy);
}

TEST(ActionTraceTest, MalformedCsvFatal)
{
    EXPECT_THROW(
        ActionTrace::fromCsv("time_us,action,tenant,template\n1,2\n"),
        FatalError);
    EXPECT_THROW(ActionTrace::fromCsv(
                     "time_us,action,tenant,template\n1,bogus,0,0\n"),
                 FatalError);
}

// Regression: these lines parsed silently under std::atoi — garbage
// became 0, trailing junk was truncated, negative times round-tripped
// — and now must be rejected outright.
TEST(ActionTraceTest, GarbageNumericFieldsFatal)
{
    const char *hdr = "time_us,action,tenant,template\n";
    // Non-numeric time (old behavior: atoi("four") == 0).
    EXPECT_THROW(
        ActionTrace::fromCsv(std::string(hdr) + "four,deploy,0,0\n"),
        FatalError);
    // Trailing junk on the time field (old: strtoll stopped at '1').
    EXPECT_THROW(
        ActionTrace::fromCsv(std::string(hdr) + "12junk,deploy,0,0\n"),
        FatalError);
    // Negative time.
    EXPECT_THROW(
        ActionTrace::fromCsv(std::string(hdr) + "-5,deploy,0,0\n"),
        FatalError);
    // Garbage tenant / template indices.
    EXPECT_THROW(
        ActionTrace::fromCsv(std::string(hdr) + "1,deploy,4x,0\n"),
        FatalError);
    EXPECT_THROW(
        ActionTrace::fromCsv(std::string(hdr) + "1,deploy,0,\n"),
        FatalError);
    EXPECT_THROW(
        ActionTrace::fromCsv(std::string(hdr) + "1,deploy,-2,0\n"),
        FatalError);
    // A well-formed line still parses.
    ActionTrace ok =
        ActionTrace::fromCsv(std::string(hdr) + "7,deploy,1,0\n");
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok.all()[0].time, 7);
}

TEST(ActionTraceTest, EmptyCsvGivesEmptyTrace)
{
    ActionTrace t =
        ActionTrace::fromCsv("time_us,action,tenant,template\n");
    EXPECT_EQ(t.size(), 0u);
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

TEST(OpTraceTest, CsvRoundTrip)
{
    OpTrace trace;
    OpRequest req;
    req.type = OpType::CloneFull;
    Task task(TaskId(1), req);
    task.markSubmitted(seconds(5));
    task.addPhaseTime(TaskPhase::DataCopy, seconds(30));
    task.markFinished(seconds(40), TaskError::OutOfSpace);
    trace.add(task);

    OpTrace back = OpTrace::fromCsv(trace.toCsv());
    ASSERT_EQ(back.size(), 1u);
    const OpRecord &r = back.all()[0];
    EXPECT_EQ(r.type, OpType::CloneFull);
    EXPECT_EQ(r.submitted, seconds(5));
    EXPECT_EQ(r.latency, seconds(35));
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, TaskError::OutOfSpace);
    EXPECT_EQ(r.phases[static_cast<std::size_t>(TaskPhase::DataCopy)],
              seconds(30));
}

TEST(OpTraceTest, MalformedCsvFatal)
{
    EXPECT_THROW(OpTrace::fromCsv("header\nnot,enough,fields\n"),
                 FatalError);
}

// Regression companion to ActionTraceTest.GarbageNumericFieldsFatal:
// the op trace's numeric columns reject what atoi used to accept.
TEST(OpTraceTest, GarbageNumericFieldsFatal)
{
    OpTrace trace;
    OpRequest req;
    req.type = OpType::PowerOn;
    Task task(TaskId(1), req);
    task.markSubmitted(seconds(1));
    task.markFinished(seconds(2), TaskError::None);
    trace.add(task);
    std::string csv = trace.toCsv();

    // Corrupt the submitted column ("1000000" -> "1000000x").
    std::string junk = csv;
    std::size_t pos = junk.find('\n') + 1;
    junk.insert(junk.find(',', pos), "x");
    EXPECT_THROW(OpTrace::fromCsv(junk), FatalError);

    // Negative submitted time.
    std::string neg = csv;
    neg.insert(neg.find('\n') + 1, "-");
    EXPECT_THROW(OpTrace::fromCsv(neg), FatalError);

    // A success flag other than 0 or 1, and an error name no TaskError
    // has.
    std::string flag = csv;
    flag.replace(flag.find(",1,none,"), 8, ",2,none,");
    EXPECT_THROW(OpTrace::fromCsv(flag), FatalError);
    std::string error = csv;
    error.replace(error.find(",1,none,"), 8, ",1,bogus,");
    EXPECT_THROW(OpTrace::fromCsv(error), FatalError);

    // The untouched round trip still works.
    EXPECT_EQ(OpTrace::fromCsv(csv).size(), 1u);
}

} // namespace
} // namespace vcp

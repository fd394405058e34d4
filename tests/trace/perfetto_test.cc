/**
 * @file
 * Perfetto trace_event export tests: envelope shape, event kinds,
 * name escaping, and lane packing for overlapping spans.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "sim/logging.hh"
#include "trace/perfetto.hh"
#include "trace/tracer.hh"

namespace vcp {
namespace {

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

void
setTestAxes(SpanTracer &t)
{
    t.setAxes({"power-on", "clone-full"}, {"api", "queue", "db"},
              {"none", "oops"});
}

TEST(PerfettoExport, EmptyTracerProducesValidEnvelope)
{
    SpanTracer t;
    setTestAxes(t);
    std::string json = exportPerfettoJson(t);

    EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("vcpsim"), std::string::npos);
    // Balanced braces — a cheap structural sanity check.
    EXPECT_EQ(countOccurrences(json, "{"), countOccurrences(json, "}"));
}

TEST(PerfettoExport, OpAndPhaseBecomeCompleteEvents)
{
    SpanTracer t;
    setTestAxes(t);
    t.recordPhase(1, 0, 7, 100, 50);  // api
    t.recordPhase(1, 2, 7, 150, 250); // db
    t.recordOp(1, 1, 7, 100, 300);    // clone-full, error "oops"
    std::string json = exportPerfettoJson(t);

    // Whole-op event carries the op name, category, and error arg.
    EXPECT_NE(json.find("\"name\":\"clone-full\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"op\""), std::string::npos);
    EXPECT_NE(json.find("\"error\":\"oops\""), std::string::npos);
    EXPECT_NE(json.find("\"task\":7"), std::string::npos);

    // Phase slices resolve their axis names.
    EXPECT_NE(json.find("\"name\":\"api\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"db\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"phase\""), std::string::npos);

    // All three are complete ("X") events with ts/dur.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 3u);
    EXPECT_NE(json.find("\"ts\":100,\"dur\":300"), std::string::npos);

    EXPECT_EQ(countOccurrences(json, "{"), countOccurrences(json, "}"));
}

TEST(PerfettoExport, NamedSpansInstantsAndCounters)
{
    SpanTracer t;
    setTestAxes(t);
    std::uint16_t deploy = t.intern("vapp.deploy");
    std::uint16_t mark = t.intern("placement-fail");
    std::uint16_t gauge = t.intern("api.queue");
    t.recordSpan(deploy, 3, 1000, 500);
    t.recordInstant(mark, 4, 1200);
    t.recordCounter(gauge, 1300, 17);
    std::string json = exportPerfettoJson(t);

    EXPECT_NE(json.find("\"name\":\"vapp.deploy\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"span\""), std::string::npos);

    // Instant: thread-scoped marker.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"placement-fail\""),
              std::string::npos);

    // Counter sample: value in args.
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"api.queue\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":17"), std::string::npos);
}

TEST(PerfettoExport, CounterKeepsLastValuePerInstant)
{
    SpanTracer t;
    setTestAxes(t);
    std::uint16_t queue = t.intern("sched.queue");
    std::uint16_t busy = t.intern("db.busy");
    t.recordCounter(queue, 100, 1);
    t.recordCounter(busy, 100, 3);
    t.recordCounter(queue, 100, 0); // enters and leaves at one instant
    t.recordCounter(queue, 200, 2);
    std::string json = exportPerfettoJson(t);

    EXPECT_EQ(countOccurrences(json, "\"ph\":\"C\""), 3u);
    EXPECT_EQ(json.find("\"value\":1}"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"sched.queue\",\"cat\":\"counter\","
                        "\"ph\":\"C\",\"pid\":1,\"ts\":100,"
                        "\"args\":{\"value\":0}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"ts\":200,\"args\":{\"value\":2}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"ts\":100,\"args\":{\"value\":3}}"),
              std::string::npos);
}

TEST(PerfettoExport, OverlappingOpsGetDistinctLanes)
{
    SpanTracer t;
    setTestAxes(t);
    // Two ops fully overlapping in time -> two lanes; a third that
    // starts after both end can reuse lane 0.
    t.recordOp(0, 0, 1, 0, 100);
    t.recordOp(0, 0, 2, 50, 100);
    t.recordOp(0, 0, 3, 500, 100);
    std::string json = exportPerfettoJson(t);

    EXPECT_NE(json.find("\"name\":\"ops 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ops 1\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"ops 2\""), std::string::npos);
}

TEST(PerfettoExport, EscapesQuotesAndControlCharacters)
{
    SpanTracer t;
    setTestAxes(t);
    std::uint16_t odd = t.intern("we\"ird\nname");
    t.recordInstant(odd, 0, 10);
    std::string json = exportPerfettoJson(t);

    EXPECT_NE(json.find("we\\\"ird\\nname"), std::string::npos);
    // The raw quote/newline must not leak into the JSON.
    EXPECT_EQ(json.find("we\"ird"), std::string::npos);
}

TEST(PerfettoExport, LongNamesAreNotTruncated)
{
    SpanTracer t;
    setTestAxes(t);
    std::string name;
    while (name.size() < 300)
        name += "fabric.link-";
    name.resize(300);
    std::uint16_t id = t.intern(name);
    t.recordSpan(id, 3, 1000, 500);
    t.recordInstant(id, 4, 1200);
    t.recordCounter(id, 1300, 17);
    std::string json = exportPerfettoJson(t);

    const std::string quoted = "\"name\":\"" + name + "\"";
    EXPECT_NE(json.find(quoted + ",\"cat\":\"span\""),
              std::string::npos);
    EXPECT_NE(json.find(quoted + ",\"cat\":\"marker\""),
              std::string::npos);
    EXPECT_NE(json.find(quoted + ",\"cat\":\"counter\""),
              std::string::npos);
    // The span's lane label.
    EXPECT_NE(json.find("\"args\":{" + quoted + "}}"),
              std::string::npos);
    EXPECT_EQ(countOccurrences(json, "{"), countOccurrences(json, "}"));
}

TEST(PerfettoExport, WriteToFileRoundTrips)
{
    SpanTracer t;
    setTestAxes(t);
    t.recordOp(0, 0, 1, 0, 100);
    std::string path = ::testing::TempDir() + "vcp_perfetto_test.json";
    ASSERT_TRUE(writePerfettoJson(t, path));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    EXPECT_EQ(std::string(buf).rfind("{\"displayTimeUnit\"", 0), 0u);
    std::remove(path.c_str());
}

TEST(PerfettoExport, UnwritablePathReportsFailure)
{
    SpanTracer t;
    setTestAxes(t);
    setLogQuiet(true);
    bool ok = writePerfettoJson(t, "/nonexistent-dir/trace.json");
    setLogQuiet(false);
    EXPECT_FALSE(ok);
}

TEST(PerfettoExport, FullDeviceReportsFailure)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    SpanTracer t;
    setTestAxes(t);
    t.recordOp(0, 0, 1, 0, 100);
    setLogQuiet(true);
    bool ok = writePerfettoJson(t, "/dev/full");
    setLogQuiet(false);
    EXPECT_FALSE(ok);
}

} // namespace
} // namespace vcp

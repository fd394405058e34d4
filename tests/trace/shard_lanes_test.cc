/**
 * @file
 * Per-shard trace lanes: after a sharded run, flushShardLanes records
 * each shard's event count at that shard's clock, and its stalled
 * rounds when the shard ran threaded.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/sharded_simulator.hh"
#include "trace/shard_lanes.hh"
#include "trace/tracer.hh"

namespace vcp {
namespace {

/** Local events only: five on shard 0, three on shard 1. */
void
runTwoShards(ShardedSimulator &engine)
{
    for (int i = 1; i <= 5; ++i)
        engine.shard(0).scheduleAt(seconds(i), [] {});
    for (int i = 1; i <= 3; ++i)
        engine.shard(1).scheduleAt(seconds(2 * i), [] {});
    engine.runUntil(seconds(10));
}

/** The counter records named @p name, in ring order. */
std::vector<SpanRecord>
countersNamed(SpanTracer &tracer, const std::string &name)
{
    std::uint16_t id = tracer.intern(name);
    std::vector<SpanRecord> out;
    for (const SpanRecord &r : tracer.ring().snapshot()) {
        if (r.kind == SpanKind::Counter && r.name == id)
            out.push_back(r);
    }
    return out;
}

TEST(ShardLanes, MergeRecordsEachShardsEvents)
{
    ShardedSimulator engine(2, 1);
    runTwoShards(engine);
    SpanTracer tracer;
    flushShardLanes(engine, tracer);

    EXPECT_EQ(tracer.ring().size(), 2u);
    for (ShardId s = 0; s < 2; ++s) {
        std::string base = "shard" + std::to_string(s);
        std::vector<SpanRecord> events =
            countersNamed(tracer, base + ".events");
        ASSERT_EQ(events.size(), 1u) << base;
        EXPECT_EQ(events[0].start, engine.shard(s).now());
        EXPECT_EQ(events[0].duration,
                  static_cast<std::int64_t>(
                      engine.shardStats(s).events));
        // Merge mode publishes no bounds, so no stall lane.
        EXPECT_TRUE(countersNamed(tracer, base + ".stalled_rounds")
                        .empty());
    }
    EXPECT_EQ(engine.shardStats(0).events, 5u);
    EXPECT_EQ(engine.shardStats(1).events, 3u);
}

TEST(ShardLanes, ThreadedAddsStalledRounds)
{
    ShardedSimulator::Options o;
    o.mode = ShardExecMode::Threaded;
    ShardedSimulator engine(2, 1, o);
    runTwoShards(engine);
    SpanTracer tracer;
    flushShardLanes(engine, tracer);

    std::size_t stall_lanes = 0;
    for (ShardId s = 0; s < 2; ++s) {
        std::string base = "shard" + std::to_string(s);
        ASSERT_EQ(countersNamed(tracer, base + ".events").size(), 1u);
        std::vector<SpanRecord> stalls =
            countersNamed(tracer, base + ".stalled_rounds");
        ASSERT_LE(stalls.size(), 1u);
        if (stalls.empty())
            continue;
        ++stall_lanes;
        EXPECT_EQ(stalls[0].start, engine.shard(s).now());
        EXPECT_EQ(stalls[0].duration,
                  static_cast<std::int64_t>(
                      engine.shardStats(s).stalled_rounds));
    }
    EXPECT_GE(stall_lanes, 1u);
}

} // namespace
} // namespace vcp

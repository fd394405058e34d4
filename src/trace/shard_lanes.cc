#include "trace/shard_lanes.hh"

#include "sim/shard.hh"
#include "sim/sharded_simulator.hh"
#include "trace/tracer.hh"

namespace vcp {

void
flushShardLanes(const ShardedSimulator &engine, SpanTracer &tracer)
{
    if (!tracer.enabled())
        return;
    for (ShardId s = 0;
         s < static_cast<ShardId>(engine.numShards()); ++s) {
        std::string base = ShardMap::label(s);
        const ShardedSimulator::ShardStats &st =
            engine.shardStats(s);
        SimTime t = engine.shard(s).now();
        tracer.recordCounter(tracer.intern(base + ".events"), t,
                             static_cast<std::int64_t>(st.events));
        if (st.rounds)
            tracer.recordCounter(
                tracer.intern(base + ".stalled_rounds"), t,
                static_cast<std::int64_t>(st.stalled_rounds));
    }
}

} // namespace vcp

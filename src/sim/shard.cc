#include "sim/shard.hh"

#include "sim/sharded_simulator.hh"

namespace vcp {

std::string
ShardMap::label(ShardId s)
{
    return "shard" + std::to_string(s);
}

Simulator &
ShardPlan::simFor(ShardId s, Simulator &fallback) const
{
    if (!engine)
        return fallback;
    return engine->shard(s);
}

} // namespace vcp

/**
 * @file
 * Shard identity and affinity for intra-run parallel execution.
 *
 * The model's event streams partition naturally: each host agent and
 * each datastore slot center touches only its own queueing state,
 * while the management server core (API center, scheduler, lock
 * manager, database) and the cloud layer (director, rebalancer,
 * lease manager) mutate shared inventory and task state
 * and therefore form the *serialized* control domain.  A ShardMap
 * records that partition: shard 0 is always the control shard; hosts
 * and datastores are spread round-robin over the remaining shards
 * (or pinned, for share-nothing federation stacks where one whole
 * management domain maps to one shard).
 *
 * The map is pure data — components consult it at construction time
 * to pick which shard's event queue (and clock) they bind to, and
 * the tracer uses it to label per-shard lanes.
 */

#ifndef VCP_SIM_SHARD_HH
#define VCP_SIM_SHARD_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace vcp {

class ShardedSimulator;
class Simulator;

/** Index of one event-set shard; 0 is the serialized control shard. */
using ShardId = std::uint32_t;

/** Static entity -> shard assignment for one simulation. */
class ShardMap
{
  public:
    /** Identity map: everything on shard 0 (the serial layout). */
    ShardMap() = default;

    /**
     * Control-plane layout: shard 0 serializes the control domain;
     * hosts and datastores round-robin over shards 1..n-1 (or all on
     * shard 0 when @p num_shards is 1).
     */
    explicit ShardMap(int num_shards)
        : shards(num_shards < 1 ? 1 : static_cast<ShardId>(num_shards))
    {}

    /** Pinned map: every domain of one model stack on @p shard —
     *  the share-nothing federation layout. */
    static ShardMap
    pinned(ShardId shard, int num_shards)
    {
        ShardMap m(num_shards);
        m.pin = shard % m.shards;
        m.pinned_ = true;
        return m;
    }

    ShardId numShards() const { return shards; }

    /** Shard of the agent for host slot @p host_index. */
    ShardId
    hostShard(std::size_t host_index) const
    {
        return spread(host_index);
    }

    /** Shard of the slot center for datastore slot @p ds_index. */
    ShardId
    datastoreShard(std::size_t ds_index) const
    {
        return spread(ds_index);
    }

    /** Diagnostics label ("shard3"). */
    static std::string label(ShardId s);

  private:
    ShardId
    spread(std::size_t index) const
    {
        if (pinned_)
            return pin;
        if (shards <= 1)
            return 0;
        // Parallel shards are 1..n-1; shard 0 stays the serialized
        // control domain so host/datastore completions never contend
        // with lock/DB/dispatch events for the same lane.
        return 1 + static_cast<ShardId>(index % (shards - 1));
    }

    ShardId shards = 1;
    ShardId pin = 0;
    bool pinned_ = false;
};

/**
 * Execution binding handed to model constructors: the engine owning
 * the per-shard kernels plus the entity->shard map.  Null engine (or
 * a one-shard map) reproduces the serial layout exactly.
 */
struct ShardPlan
{
    ShardedSimulator *engine = nullptr;
    ShardMap map;

    /** The kernel facade a component with shard @p s binds to;
     *  @p fallback when no engine is attached. */
    Simulator &simFor(ShardId s, Simulator &fallback) const;
};

} // namespace vcp

#endif // VCP_SIM_SHARD_HH

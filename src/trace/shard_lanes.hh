/**
 * @file
 * Per-shard tracer lanes for sharded runs: each shard's final event
 * and stalled-round counts as counter records, so the Perfetto export
 * shows how the run's events spread over the shards.  Lives in the
 * trace layer (not the kernel) to keep vcp_sim free of trace
 * dependencies.
 */

#ifndef VCP_TRACE_SHARD_LANES_HH
#define VCP_TRACE_SHARD_LANES_HH

namespace vcp {

class ShardedSimulator;
class SpanTracer;

/**
 * Emit per-shard lanes into @p tracer: final "shardK.events" /
 * "shardK.stalled_rounds" counters.  Call after the run completes
 * (the shard statistics are quiescent then); a no-op when the tracer
 * is disabled.
 */
void flushShardLanes(const ShardedSimulator &engine,
                     SpanTracer &tracer);

} // namespace vcp

#endif // VCP_TRACE_SHARD_LANES_HH

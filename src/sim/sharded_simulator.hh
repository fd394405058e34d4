/**
 * @file
 * Conservative (lookahead-based) parallel event execution inside one
 * simulation run.
 *
 * A ShardedSimulator owns K per-shard kernels (each a full Simulator:
 * event queue, clock, RNG) plus the machinery that lets them advance
 * together correctly: per-edge SPSC mailboxes for cross-shard sends
 * and a round-based conservative horizon protocol driven by each
 * shard's published *bound* (a lower limit on any event it can still
 * send).  Two execution modes share that structure:
 *
 *  - **DeterministicMerge** (the oracle): one thread pops the
 *    globally minimal (time, priority, sequence) event across all K
 *    queues.  Sequence numbers come from one shared counter, so the
 *    execution order — and therefore every byte of model output — is
 *    identical to the classic single-queue serial kernel, for any K.
 *    Cross-shard model calls stay legal (it is one thread), which is
 *    what lets the single-management-server model run sharded today.
 *
 *  - **Threaded**: one worker per shard.  Each round, every shard
 *    (1) drains its inbound mailboxes, (2) publishes
 *    bound = min(next local event time, until), then after a barrier
 *    (3) executes local events up to
 *    H = min over other shards (bound + their declared lookahead).
 *    A send posted while executing an event at time t satisfies
 *    when >= t + lookahead >= bound + lookahead >= every receiver's
 *    H, so no shard ever receives an event in its past — including
 *    chains through third shards and zero-lookahead edges (the
 *    receiver's H is then capped at the sender's bound itself).
 *    Rounds are separated by barriers, which also makes mailbox
 *    drain points — and hence the whole execution — deterministic
 *    for a fixed shard count: cross-shard ties are ordered by a
 *    (source shard, source sequence) key, not by arrival timing.
 *
 * Threaded mode requires the model partition to be *shard-closed*:
 * an event handler may touch only state owned by its shard, and all
 * cross-shard work must flow through post().  The share-nothing
 * federation stacks satisfy this; the single-server model does not
 * yet (its pipeline helpers call host-agent and datastore centers
 * synchronously) and therefore runs Merge.  See DESIGN.md "Parallel
 * kernel".
 */

#ifndef VCP_SIM_SHARDED_SIMULATOR_HH
#define VCP_SIM_SHARDED_SIMULATOR_HH

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/shard.hh"
#include "sim/simulator.hh"
#include "sim/spsc_mailbox.hh"

namespace vcp {

/** How the per-shard event sets are executed. */
enum class ShardExecMode : std::uint8_t
{
    Merge,    ///< single-thread global merge; byte-identical to serial
    Threaded, ///< one worker per shard, conservative horizons
};

const char *shardExecModeName(ShardExecMode m);

/** K per-shard kernels advancing under one horizon protocol. */
class ShardedSimulator
{
  public:
    /** Most shards an engine can have: the cross-shard event key
     *  spends 7 bits on the source shard. */
    static constexpr int kMaxShards = 128;

    struct Options
    {
        ShardExecMode mode = ShardExecMode::Merge;

        /**
         * Default outgoing-lookahead promise per shard: every post()
         * from shard s must satisfy when >= s.now() + lookahead(s).
         * 0 is always safe (the round protocol tolerates it); larger
         * values widen every other shard's execution window.
         */
        SimDuration lookahead = 0;

        /** Per-edge mailbox ring capacity (overflow spills safely). */
        std::size_t mailbox_capacity = 1024;

        /** Record per-shard execution windows for trace lanes
         *  (threaded mode; capped per shard). */
        bool collect_windows = true;
    };

    /** Per-shard execution counters (horizon-stall attribution). */
    struct ShardStats
    {
        std::uint64_t events = 0;
        std::uint64_t rounds = 0;
        /** Rounds where the horizon admitted no local event while
         *  the queue was non-empty — time lost to neighbors' lag. */
        std::uint64_t stalled_rounds = 0;
        std::uint64_t cross_sent = 0;
        std::uint64_t cross_received = 0;
        /** Wall-clock nanoseconds this shard's worker spent inside
         *  round barriers (threaded mode) — load-imbalance signal. */
        std::uint64_t barrier_wait_ns = 0;
    };

    /**
     * @param num_shards event-set shards; shard 0 is the control
     *        shard and its kernel is seeded with @p seed exactly like
     *        a plain Simulator (shards k>0 fork via splitmix64), so
     *        one-shard construction is bit-equivalent to the classic
     *        serial kernel.
     */
    explicit ShardedSimulator(int num_shards, std::uint64_t seed = 1);
    ShardedSimulator(int num_shards, std::uint64_t seed,
                     const Options &opts);
    ~ShardedSimulator();

    ShardedSimulator(const ShardedSimulator &) = delete;
    ShardedSimulator &operator=(const ShardedSimulator &) = delete;

    int numShards() const { return static_cast<int>(shards_.size()); }
    ShardExecMode mode() const { return opts_.mode; }

    /** Kernel facade of one shard (components bind to this). */
    Simulator &shard(ShardId s);
    const Simulator &shard(ShardId s) const;

    /** Declare shard @p s's outgoing-lookahead promise (enforced on
     *  every post() while running threaded). */
    void setLookahead(ShardId s, SimDuration la);
    SimDuration lookahead(ShardId s) const;

    /**
     * Cross-shard send: schedule @p action on shard @p dst at
     * absolute time @p when.  From inside a threaded run this is the
     * only legal way to reach another shard; when must respect the
     * source shard's lookahead promise.  Outside a run (or in merge
     * mode) it degrades to a plain deterministic scheduleAt.
     */
    void post(ShardId src, ShardId dst, SimTime when, int priority,
              InlineAction action);

    /**
     * Run all shards up to and including @p until, then set every
     * shard clock to @p until.  Returns early on stop().
     */
    void runUntil(SimTime until);

    /** Run until every queue and mailbox drains (or stop()). */
    void run();

    /** Request the run to end at the next event (merge) or the next
     *  horizon round (threaded). */
    void stop();
    bool stopRequested() const { return stopping_.load(); }

    /** True while runUntil()/run() is executing. */
    bool running() const { return running_.load(); }

    /** Executing shard of the calling thread, or kNoShard outside
     *  event execution. */
    static constexpr ShardId kNoShard = ~ShardId(0);
    static ShardId currentShard();

    /** Control-shard clock (== until after a completed runUntil). */
    SimTime now() const { return shard(0).now(); }

    /** Events executed across all shards. */
    std::uint64_t eventsProcessed() const;

    /** Live pending events across all shards (quiescent only). */
    std::size_t pendingEvents() const;

    const ShardStats &shardStats(ShardId s) const;

    /** Undrained cross events queued toward shard @p s, summed over
     *  its inboxes (racy while running; telemetry backlog probe). */
    std::size_t mailboxBacklog(ShardId s) const;

    /** Horizon rounds completed (threaded mode). */
    std::uint64_t rounds() const { return rounds_; }

    /** One executed horizon window (threaded runs; trace-lane
     *  material — see flushShardLanes in trace/shard_lanes.hh). */
    struct Window
    {
        SimTime start = 0;
        SimTime end = 0;
        std::uint32_t events = 0;
    };

    /** Executed windows of shard @p s (capped; quiescent only). */
    const std::vector<Window> &shardWindows(ShardId s) const;

  private:
    struct CrossEvent
    {
        SimTime when = 0;
        std::int32_t priority = 0;
        std::uint32_t seq = 0;
        InlineAction action;
    };

    struct Shard
    {
        Simulator sim;
        /** Published lower bound on future sends (round protocol). */
        std::atomic<SimTime> bound{0};
        SimDuration lookahead = 0;
        /** inbox[src]: SPSC ring from shard src. */
        std::vector<std::unique_ptr<SpscMailbox<CrossEvent>>> inbox;
        /** Outgoing per-destination sequence (deterministic keys). */
        std::vector<std::uint32_t> edge_seq;
        ShardStats stats;
        std::vector<Window> windows;

        explicit Shard(std::uint64_t seed) : sim(seed) {}
    };

    void runMergeUntil(SimTime until, bool drain);
    void runThreadedUntil(SimTime until);
    void worker(ShardId s, SimTime until, std::barrier<> &bar);

    /** Drain shard @p s's inboxes into its queue; returns items. */
    std::uint64_t drainInboxes(Shard &sh);

    /** 32-bit tie-break key for a cross event: sorts after local
     *  events at equal (time, priority), then by (src, seq). */
    static std::uint32_t
    crossSeq(ShardId src, std::uint32_t seq)
    {
        return 0x80000000u | (src << 24) | (seq & 0xffffffu);
    }

    Options opts_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** Merge mode: one sequence counter shared by all queues. */
    std::uint64_t shared_seq_ = 0;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> running_{false};
    std::atomic<bool> done_flag_{false};
    /** Cross events sent but not yet drained (termination check). */
    std::atomic<std::int64_t> cross_pending_{0};
    std::uint64_t rounds_ = 0;
};

} // namespace vcp

#endif // VCP_SIM_SHARDED_SIMULATOR_HH

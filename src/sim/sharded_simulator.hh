/**
 * @file
 * Conservative (lookahead-based) parallel event execution inside one
 * simulation run.
 *
 * A ShardedSimulator owns K per-shard kernels (each a full Simulator:
 * event queue, clock, RNG) plus the machinery that lets them advance
 * together correctly: per-edge SPSC mailboxes for cross-shard sends
 * and a conservative (Chandy–Misra–Bryant) protocol driven by each
 * shard's published *bound* (a lower limit on the time of any event
 * it can still execute, hence on any send it can still make).  Two
 * execution modes share that structure:
 *
 *  - **DeterministicMerge** (the oracle): one thread pops the
 *    globally minimal (time, priority, sequence) event across all K
 *    queues.  Sequence numbers come from one shared counter, so the
 *    execution order — and therefore every byte of model output — is
 *    identical to the classic single-queue serial kernel, for any K.
 *    Cross-shard model calls stay legal (it is one thread), which is
 *    what lets the single-management-server model run sharded today.
 *
 *  - **Threaded**: one worker per shard, no rounds.  A worker reads
 *    the other shards' bounds, drains its inboxes, runs its local
 *    events strictly below H = min over other shards of (bound +
 *    their lookahead), and after pushing its sends publishes
 *    bound = min(next local event, H, just past the run's end) — at
 *    the end of the batch, and on the way once it can rise by a
 *    lookahead.  A shard's future events come from its queue or from
 *    deliveries, which land at or after H, so the bound is safe; every
 *    send with when < H was pushed before the bound that admitted it,
 *    so the drain finds it.  H is strict because a send may land at
 *    exactly bound + lookahead and must sort against local events at
 *    that time.  A worker with nothing below H waits (brief spin, then
 *    std::atomic::wait) for a neighbour's bound to move.  When every
 *    worker is waiting, the last one in takes a synchronous step:
 *    all drain, the exact bounds are computed from every shard's next
 *    event, and the run either ends (nothing left up to `until`),
 *    resumes, or — zero-lookahead shards tied at one time L — runs
 *    every shard's events at exactly L.  Cross-shard ties are ordered
 *    by a (source shard, source sequence) key, not by arrival timing,
 *    so threaded runs are deterministic for a fixed shard count.
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
         * 0 is always safe (tied shards then advance by synchronous
         * steps); larger values widen every other shard's horizon.
         */
        SimDuration lookahead = 0;

        /** Per-edge mailbox ring capacity (overflow spills safely). */
        std::size_t mailbox_capacity = 1024;
    };

    /** Per-shard execution counters (horizon-stall attribution;
     *  the round counters stay zero in merge mode). */
    struct ShardStats
    {
        std::uint64_t events = 0;
        /** Bound publications (threaded mode). */
        std::uint64_t rounds = 0;
        /** Waits on a neighbour while a local event up to the run's
         *  end was pending — time lost to neighbours' lag. */
        std::uint64_t stalled_rounds = 0;
        std::uint64_t cross_sent = 0;
        std::uint64_t cross_received = 0;
        /** Wall-clock nanoseconds this shard's worker spent waiting
         *  on a neighbour (threaded mode) — load-imbalance signal. */
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

    /** Request the run to end at the next event; in threaded mode
     *  every worker returns after its current event or wait. */
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

    /** Bound publications summed over shards (threaded mode). */
    std::uint64_t rounds() const;

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
        SimDuration lookahead = 0;
        /** inbox[src]: SPSC ring from shard src. */
        std::vector<std::unique_ptr<SpscMailbox<CrossEvent>>> inbox;
        /** Outgoing per-destination sequence (deterministic keys). */
        std::vector<std::uint32_t> edge_seq;
        ShardStats stats;
        /** Next local event, capped just past the run's end, as
         *  recorded for the latest synchronous step. */
        SimTime step_next = 0;
        /** Published lower bound on the time of any event this shard
         *  can still execute.  Alone on its cache line: every other
         *  worker polls it. */
        alignas(64) std::atomic<SimTime> bound{0};

        explicit Shard(std::uint64_t seed) : sim(seed) {}
    };

    /** What a synchronous step decided (see decideStep). */
    enum class StepAction : std::uint8_t
    {
        Resume, ///< some shard has events below its exact horizon
        Tie,    ///< zero-lookahead tie: run every event at step_time_
        Done,   ///< nothing left up to the run's end
    };

    /** How a wait for a neighbour ended. */
    enum class Wake : std::uint8_t
    {
        Run,  ///< the horizon moved past a local event
        Step, ///< every worker is waiting: take a synchronous step
        Stop, ///< stop() was requested
    };

    void runMergeUntil(SimTime until, bool drain);
    void runThreadedUntil(SimTime until);
    void worker(ShardId s, SimTime until);
    /** The asynchronous protocol from the worker of shard @p s, until
     *  every worker waits (Wake::Step) or a stop (Wake::Stop). */
    Wake runAsync(ShardId s, SimTime until, SimTime cap);
    /** Wait until horizon @p h moves past a local event (updating
     *  h), every worker waits, or a stop; @p spin_first polls before
     *  joining the census. */
    Wake awaitHorizon(ShardId s, SimTime &h, bool spin_first,
                      SimTime until, SimTime cap);
    /** One synchronous step; false on stop. */
    bool syncStep(Shard &sh, SimTime cap);
    /** Exact bounds and step_action_ from every shard's step_next
     *  (the caller is the only thread touching them). */
    void decideStep(SimTime cap);

    /** Local events of @p sh below @p h and up to @p until; returns
     *  the number run.  @p publish: h is a horizon, so bounds may be
     *  published on the way. */
    std::uint64_t runBelow(Shard &sh, SimTime h, SimTime until,
                           bool publish);
    /** min over shards other than @p s of bound + lookahead. */
    SimTime horizon(ShardId s) const;
    /** Raise @p sh's bound to @p b; @p progress (events ran since
     *  the last one) restarts a partial census. */
    void publishBound(Shard &sh, SimTime b, bool progress);
    /** One poll of a waiting worker: a pause, later a yield, at last
     *  park(); @p polls counts them. */
    template <typename Ready> void backOff(int &polls, Ready ready);
    /** Block until @p ready() or wakeSleepers(). */
    template <typename Ready> void park(Ready ready);
    void wakeSleepers();

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

    /** Written by the step's last worker before the census epoch
     *  moves; read by every worker after it. */
    StepAction step_action_ = StepAction::Resume;
    SimTime step_time_ = 0;

    /** Census of waiting workers: their count in the low 32 bits,
     *  the census epoch above.  The worker whose arrival makes the
     *  count K takes the step; the step's end and any worker that
     *  ran events since joining start a new epoch. */
    alignas(64) std::atomic<std::uint64_t> sync_{0};
    /** Workers that reached the current step. */
    alignas(64) std::atomic<std::uint32_t> arrived_{0};
    /** Parking word, bumped by wakeSleepers() while any worker
     *  sleeps on it. */
    alignas(64) std::atomic<std::uint32_t> wake_{0};
    std::atomic<std::uint32_t> sleepers_{0};
};

} // namespace vcp

#endif // VCP_SIM_SHARDED_SIMULATOR_HH

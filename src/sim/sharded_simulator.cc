#include "sim/sharded_simulator.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "sim/cpu_spread.hh"
#include "sim/logging.hh"
#include "sim/parallel_sweep.hh"

namespace vcp {

namespace {

/** Executing shard of this thread (post() routing and assertions). */
thread_local ShardId tls_shard = ~ShardId(0);

/**
 * A waiting worker polls the neighbours' bounds kSpinPolls times with
 * a pause (~5 us on a 2.1 GHz Xeon, past most of a neighbour's lag),
 * then kYieldPolls times with a yield (~0.14 ms while no other thread
 * wants the core), then parks.  Measured with perf_smoke_parallel on
 * a 4-vCPU KVM guest: parking after 500 pauses missed the 1.5x floor
 * more often alone, as a parked vCPU is slow to wake; 2,000 pauses
 * without yields collapsed to 0.03-0.09x when two copies shared the
 * vCPUs, holding cores that the awaited workers needed.
 */
constexpr int kSpinPolls = 200;
constexpr int kYieldPolls = 400;

/** Per-edge mailbox ring capacity (overflow spills safely). */
constexpr std::size_t kMailboxCapacity = 1024;

/** ShardedSimulator::sync_: census epoch above, waiting count below. */
constexpr std::uint64_t kWaitingMask = 0xffffffffu;

std::uint64_t epochOf(std::uint64_t v) { return v >> 32; }
std::uint64_t waitingOf(std::uint64_t v) { return v & kWaitingMask; }

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

SimTime
satAdd(SimTime t, SimDuration d)
{
    return t > kMaxSimTime - d ? kMaxSimTime : t + d;
}

/** The bound of a shard with nothing left up to @p until. */
SimTime
justPast(SimTime until)
{
    return satAdd(until, 1);
}

} // namespace

const char *
shardExecModeName(ShardExecMode m)
{
    switch (m) {
    case ShardExecMode::Merge:
        return "merge";
    case ShardExecMode::Threaded:
        return "threaded";
    }
    return "?";
}

ShardedSimulator::ShardedSimulator(int num_shards, std::uint64_t seed)
    : ShardedSimulator(num_shards, seed, Options{})
{}

ShardedSimulator::ShardedSimulator(int num_shards, std::uint64_t seed,
                                   const Options &opts)
    : opts_(opts)
{
    if (opts_.lookahead < 0)
        panic("ShardedSimulator: negative lookahead");
    if (num_shards < 1)
        num_shards = 1;
    if (num_shards > kMaxShards)
        panic("ShardedSimulator: %d shards exceeds the 7-bit "
              "cross-shard key budget (max %d)",
              num_shards, kMaxShards);
    shards_.reserve(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
        // Shard 0 carries the caller's seed unchanged so a one-shard
        // engine is bit-equivalent to a plain Simulator(seed);
        // further shards fork independent streams by index.
        std::uint64_t sh_seed =
            s == 0 ? seed
                   : ParallelSweepRunner::forkSeed(
                         seed, static_cast<std::uint64_t>(s));
        auto sh = std::make_unique<Shard>(sh_seed);
        sh->sim.shard_id = static_cast<ShardId>(s);
        sh->sim.owner = this;
        sh->lookahead = opts_.lookahead;
        sh->inbox.reserve(static_cast<std::size_t>(num_shards));
        for (int src = 0; src < num_shards; ++src)
            sh->inbox.push_back(
                std::make_unique<SpscMailbox<CrossEvent>>(
                    kMailboxCapacity));
        sh->edge_seq.assign(static_cast<std::size_t>(num_shards), 0);
        shards_.push_back(std::move(sh));
    }
    if (opts_.mode == ShardExecMode::Merge) {
        // One insertion counter across every queue reproduces the
        // serial kernel's global event order bit-for-bit.
        for (auto &sh : shards_)
            sh->sim.setSeqCounter(&shared_seq_);
    }
}

ShardedSimulator::~ShardedSimulator() = default;

Simulator &
ShardedSimulator::shard(ShardId s)
{
    if (s >= shards_.size())
        panic("ShardedSimulator::shard: %u out of range (%d shards)",
              s, numShards());
    return shards_[s]->sim;
}

const Simulator &
ShardedSimulator::shard(ShardId s) const
{
    if (s >= shards_.size())
        panic("ShardedSimulator::shard: %u out of range (%d shards)",
              s, numShards());
    return shards_[s]->sim;
}

ShardId
ShardedSimulator::currentShard()
{
    return tls_shard;
}

std::uint64_t
ShardedSimulator::eventsProcessed() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards_)
        n += sh->sim.eventsProcessed();
    return n;
}

std::size_t
ShardedSimulator::pendingEvents() const
{
    std::size_t n = 0;
    for (const auto &sh : shards_)
        n += sh->sim.pendingEvents();
    return n;
}

const ShardedSimulator::ShardStats &
ShardedSimulator::shardStats(ShardId s) const
{
    return shards_.at(s)->stats;
}

std::size_t
ShardedSimulator::mailboxBacklog(ShardId s) const
{
    std::size_t n = 0;
    for (const auto &mb : shards_.at(s)->inbox)
        if (mb)
            n += mb->approxSize();
    return n;
}

void
ShardedSimulator::stop()
{
    stopping_.store(true, std::memory_order_seq_cst);
    wakeSleepers();
}

std::uint64_t
ShardedSimulator::rounds() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards_)
        n += sh->stats.rounds;
    return n;
}

void
ShardedSimulator::post(ShardId src, ShardId dst, SimTime when,
                       int priority, InlineAction action)
{
    if (src >= shards_.size() || dst >= shards_.size())
        panic("ShardedSimulator::post: shard out of range "
              "(src %u, dst %u of %d)",
              src, dst, numShards());
    Shard &s = *shards_[src];
    Shard &d = *shards_[dst];
    bool threaded_run = running_.load(std::memory_order_relaxed) &&
                        opts_.mode == ShardExecMode::Threaded;
    if (src != dst && when < s.sim.now() + s.lookahead)
        panic("ShardedSimulator::post: send from shard %u (now %lld) "
              "for %lld violates its lookahead promise of %lld",
              src, static_cast<long long>(s.sim.now()),
              static_cast<long long>(when),
              static_cast<long long>(s.lookahead));
    if (!threaded_run || src == dst) {
        // Single-threaded contexts — merge execution, pre-run setup,
        // post-run work, or a shard's own queue: schedule directly;
        // the regular insertion counter is already deterministic.
        if (src != dst) {
            ++s.stats.cross_sent;
            ++d.stats.cross_received;
        }
        d.sim.scheduleAt(when, std::move(action), priority);
        return;
    }
    if (tls_shard != src)
        panic("ShardedSimulator::post: shard %u is not the executing "
              "shard of this thread",
              src);
    std::uint32_t seq = s.edge_seq[dst]++;
    if (seq >= (1u << 24))
        panic("ShardedSimulator::post: edge %u->%u exhausted its "
              "24-bit sequence space",
              src, dst);
    CrossEvent ev;
    ev.when = when;
    ev.priority = priority;
    ev.seq = seq;
    ev.action = std::move(action);
    ++s.stats.cross_sent;
    d.inbox[src]->push(std::move(ev));
}

std::uint64_t
ShardedSimulator::drainInboxes(Shard &sh)
{
    std::uint64_t n = 0;
    for (ShardId src = 0; src < shards_.size(); ++src) {
        if (src == sh.sim.shard_id)
            continue;
        SpscMailbox<CrossEvent> &box = *sh.inbox[src];
        CrossEvent ev;
        while (box.pop(ev)) {
            // scheduleCross panics if `when` is in this shard's past
            // — exactly a violated lookahead promise.
            sh.sim.scheduleCross(ev.when, ev.priority,
                                 crossSeq(src, ev.seq),
                                 std::move(ev.action));
            ++n;
        }
    }
    sh.stats.cross_received += n;
    return n;
}

void
ShardedSimulator::runUntil(SimTime until)
{
    for (const auto &sh : shards_)
        if (until < sh->sim.now())
            panic("ShardedSimulator::runUntil: target %lld is in "
                  "shard %u's past (now %lld)",
                  static_cast<long long>(until), sh->sim.shardId(),
                  static_cast<long long>(sh->sim.now()));
    if (running_.exchange(true))
        panic("ShardedSimulator: re-entrant run");
    stopping_.store(false);
    if (shards_.size() == 1 || opts_.mode == ShardExecMode::Merge)
        runMergeUntil(until, /*drain=*/false);
    else
        runThreadedUntil(until);
    running_.store(false);
}

void
ShardedSimulator::run()
{
    if (running_.exchange(true))
        panic("ShardedSimulator: re-entrant run");
    stopping_.store(false);
    if (shards_.size() == 1 || opts_.mode == ShardExecMode::Merge)
        runMergeUntil(kMaxSimTime, /*drain=*/true);
    else
        runThreadedUntil(kMaxSimTime);
    running_.store(false);
}

void
ShardedSimulator::runMergeUntil(SimTime until, bool drain)
{
    const std::size_t K = shards_.size();
    if (K == 1) {
        // One shard IS the serial kernel; use its tight loop.
        Shard &sh = *shards_[0];
        std::uint64_t before = sh.sim.eventsProcessed();
        if (drain)
            sh.sim.run();
        else
            sh.sim.runUntil(until);
        sh.stats.events += sh.sim.eventsProcessed() - before;
        if (sh.sim.stopRequested())
            stopping_.store(true);
        return;
    }
    for (auto &sh : shards_)
        sh->sim.stopping = false;
    for (;;) {
        // Fast path: when exactly one shard has pending events its
        // head is globally minimal by construction, so the K-way key
        // compare below is pure overhead.  This is the common regime
        // late in a run (or with skewed partitions); cross-shard
        // posts can repopulate any queue after any event, so the
        // census is redone each iteration.
        std::size_t only = K, nonempty = 0;
        for (std::size_t s = 0; s < K; ++s) {
            if (shards_[s]->sim.pendingEvents() == 0)
                continue;
            only = s;
            if (++nonempty > 1)
                break;
        }
        if (nonempty == 0)
            break;
        std::size_t best;
        std::uint64_t bk1 = 0, bk2 = 0;
        if (nonempty == 1) {
            best = only;
            shards_[best]->sim.peekKey(bk1, bk2);
        } else {
            // Globally minimal (time, priority, sequence) across all
            // shard queues; the shared counter makes the sequence
            // part a total order identical to the serial
            // single-queue run.
            best = K;
            for (std::size_t s = 0; s < K; ++s) {
                std::uint64_t k1, k2;
                if (!shards_[s]->sim.peekKey(k1, k2))
                    continue;
                if (best == K || k1 < bk1 ||
                    (k1 == bk1 && k2 < bk2)) {
                    best = s;
                    bk1 = k1;
                    bk2 = k2;
                }
            }
            if (best == K)
                break;
        }
        SimTime t = static_cast<SimTime>(bk1 >> 16);
        if (!drain && t > until)
            break;
        // One global clock: every shard observes the event's time,
        // exactly as the serial kernel would — model code may legally
        // reach across shards inside this event.
        for (auto &sh : shards_)
            sh->sim.forceClock(t);
        Shard &ex = *shards_[best];
        tls_shard = static_cast<ShardId>(best);
        ex.sim.executeNext();
        ++ex.stats.events;
        if (ex.sim.stopRequested() ||
            stopping_.load(std::memory_order_relaxed)) {
            stopping_.store(true);
            break;
        }
    }
    tls_shard = kNoShard;
    if (!drain && !stopping_.load())
        for (auto &sh : shards_)
            sh->sim.forceClock(until);
}

void
ShardedSimulator::runThreadedUntil(SimTime until)
{
    const std::size_t K = shards_.size();
    const SimTime cap = justPast(until);
    for (auto &sh : shards_) {
        sh->sim.stopping = false;
        // No shard executes before its clock: a safe starting bound,
        // which decideStep raises to the exact one.
        sh->bound.store(sh->sim.now(), std::memory_order_relaxed);
        sh->step_next = std::min(sh->sim.nextEventTime(), cap);
    }
    sync_.store(0, std::memory_order_relaxed);
    arrived_.store(0, std::memory_order_relaxed);
    // Nothing is in flight before the launch, so it is a synchronous
    // step: the workers start from its decision.
    decideStep(cap);
    if (step_action_ != StepAction::Done) {
        const CpuSpread spread;
        std::vector<std::thread> threads;
        threads.reserve(K - 1);
        for (ShardId s = 1; s < K; ++s)
            threads.emplace_back([this, s, until, &spread] {
                spread.place(s);
                worker(s, until);
            });
        worker(0, until);
        for (std::thread &t : threads)
            t.join();
    }
    // Sends a stop left in the mailboxes join their queues; none is
    // in its receiver's past, since it was at or beyond the horizon
    // the receiver last ran to.
    for (auto &sh : shards_)
        drainInboxes(*sh);
    // A drain run (until == kMaxSimTime) leaves each clock at its
    // shard's last event, matching serial run() semantics.
    if (until != kMaxSimTime && !stopping_.load())
        for (auto &sh : shards_)
            sh->sim.forceClock(until);
}

void
ShardedSimulator::worker(ShardId s, SimTime until)
{
    Shard &sh = *shards_[s];
    const SimTime cap = justPast(until);
    tls_shard = s;
    for (;;) {
        if (step_action_ == StepAction::Done)
            break;
        if (step_action_ == StepAction::Tie &&
            sh.step_next == step_time_)
            runBelow(sh, step_time_ + 1, until, false);
        if (runAsync(s, until, cap) == Wake::Stop ||
            !syncStep(sh, cap))
            break;
    }
    tls_shard = kNoShard;
}

ShardedSimulator::Wake
ShardedSimulator::runAsync(ShardId s, SimTime until, SimTime cap)
{
    Shard &sh = *shards_[s];
    SimTime h = horizon(s);
    for (;;) {
        // Every send below h was pushed before the bound that put h
        // there, so after this drain the queue holds all of them.
        drainInboxes(sh);
        std::uint64_t ran = runBelow(sh, h, until, true);
        if (stopping_.load(std::memory_order_relaxed))
            return Wake::Stop;
        // This shard's future events are its queue's and deliveries
        // at or beyond h; its sends above were pushed before this.
        publishBound(sh, std::min({sh.sim.nextEventTime(), h, cap}),
                     ran > 0);
        SimTime nh = horizon(s);
        if (nh != h) {
            h = nh;
            continue;
        }
        const bool stalled = sh.sim.nextEventTime() <= until;
        if (stalled)
            ++sh.stats.stalled_rounds;
        auto t0 = std::chrono::steady_clock::now();
        Wake w = awaitHorizon(s, h, ran > 0 && stalled, until, cap);
        sh.stats.barrier_wait_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        if (w != Wake::Run)
            return w;
    }
}

ShardedSimulator::Wake
ShardedSimulator::awaitHorizon(ShardId s, SimTime &h, bool spin_first,
                               SimTime until, SimTime cap)
{
    Shard &sh = *shards_[s];
    const std::uint64_t K = shards_.size();
    int polls = 0;
    // A worker that just ran a batch and has more expects its
    // neighbours to finish theirs shortly: poll without joining the
    // census.
    if (spin_first) {
        for (; polls < kSpinPolls + kYieldPolls; ++polls) {
            if (stopping_.load(std::memory_order_relaxed))
                return Wake::Stop;
            SimTime nh = horizon(s);
            if (nh != h) {
                h = nh;
                return Wake::Run;
            }
            if (polls < kSpinPolls)
                cpuRelax();
            else
                std::this_thread::yield();
        }
    }
    // Join the census of waiting workers; the one that completes it
    // takes the step, and nobody executes events while it is
    // complete.  A worker that runs events restarts the census (a new
    // epoch), so it completes only when no worker made progress
    // since it joined.
    std::uint64_t v = sync_.fetch_add(1, std::memory_order_seq_cst) + 1;
    const std::uint64_t epoch = epochOf(v);
    if (waitingOf(v) == K) {
        wakeSleepers();
        return Wake::Step;
    }
    auto changed = [&] {
        std::uint64_t now = sync_.load(std::memory_order_seq_cst);
        return stopping_.load(std::memory_order_seq_cst) ||
               epochOf(now) != epoch || waitingOf(now) == K ||
               horizon(s) != h;
    };
    for (;;) {
        if (stopping_.load(std::memory_order_seq_cst))
            return Wake::Stop;
        v = sync_.load(std::memory_order_seq_cst);
        if (epochOf(v) != epoch)
            return Wake::Run; // restarted: re-check, then rejoin
        if (waitingOf(v) == K)
            return Wake::Step;
        SimTime nh = horizon(s);
        if (nh != h) {
            h = nh;
            drainInboxes(sh);
            SimTime next = sh.sim.nextEventTime();
            if (next < h && next <= until) {
                // Leave the census, unless it completed or restarted
                // meanwhile.
                while (epochOf(v) == epoch && waitingOf(v) < K)
                    if (sync_.compare_exchange_weak(
                            v, v - 1, std::memory_order_seq_cst))
                        return Wake::Run;
                return epochOf(v) == epoch ? Wake::Step : Wake::Run;
            }
            // Still nothing to run: pass the higher bound on (idle
            // shards creep up by a lookahead per exchange) and stay
            // counted, so creeping cannot postpone the step.
            publishBound(sh, std::min({next, h, cap}), false);
            continue;
        }
        backOff(polls, changed);
    }
}

bool
ShardedSimulator::syncStep(Shard &sh, SimTime cap)
{
    const std::uint32_t K = static_cast<std::uint32_t>(shards_.size());
    // Every worker is counted, so every send is already pushed: this
    // drain leaves nothing in flight toward this shard.
    drainInboxes(sh);
    sh.step_next = std::min(sh.sim.nextEventTime(), cap);
    // Nobody runs events during the step, so only its end moves the
    // epoch.
    const std::uint64_t epoch =
        epochOf(sync_.load(std::memory_order_seq_cst));
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == K) {
        arrived_.store(0, std::memory_order_relaxed);
        decideStep(cap);
        sync_.store((epoch + 1) << 32, std::memory_order_seq_cst);
        wakeSleepers();
        return !stopping_.load(std::memory_order_relaxed);
    }
    auto t0 = std::chrono::steady_clock::now();
    auto moved = [&] {
        return stopping_.load(std::memory_order_seq_cst) ||
               epochOf(sync_.load(std::memory_order_seq_cst)) != epoch;
    };
    for (int polls = 0; !moved();)
        backOff(polls, moved);
    sh.stats.barrier_wait_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return !stopping_.load(std::memory_order_relaxed);
}

void
ShardedSimulator::decideStep(SimTime cap)
{
    // With nothing in flight, shard o's next event n_o bounds all it
    // will ever execute, and its sends land at >= n_o + lookahead.
    // So shard s executes nothing before
    //   b_s = min(n_s, min over o != s of (n_o + lookahead_o))
    // (one hop suffices: a longer chain adds lookaheads >= 0).
    SimTime first = kMaxSimTime;
    for (const auto &sh : shards_)
        first = std::min(first, sh->step_next);
    for (ShardId s = 0; s < shards_.size(); ++s) {
        SimTime arrive = kMaxSimTime;
        for (ShardId o = 0; o < shards_.size(); ++o)
            if (o != s)
                arrive = std::min(arrive, satAdd(shards_[o]->step_next,
                                                 shards_[o]->lookahead));
        Shard &sh = *shards_[s];
        sh.bound.store(std::max(sh.bound.load(std::memory_order_relaxed),
                                std::min(sh.step_next, arrive)),
                       std::memory_order_relaxed);
    }
    bool runnable = false;
    for (ShardId s = 0; s < shards_.size(); ++s)
        runnable |= shards_[s]->step_next < std::min(horizon(s), cap);
    // Nobody runnable below its exact horizon means every shard
    // holding the earliest time is tied at it with a zero-lookahead
    // neighbour: they all run their events at exactly that time.
    step_action_ = first >= cap  ? StepAction::Done
                   : runnable    ? StepAction::Resume
                                 : StepAction::Tie;
    step_time_ = first;
}

std::uint64_t
ShardedSimulator::runBelow(Shard &sh, SimTime h, SimTime until,
                           bool publish)
{
    const SimTime cap = justPast(until);
    const std::uint64_t before = sh.sim.eventsProcessed();
    // Publish on the way once the bound can rise by a lookahead: a
    // neighbour that skipped ahead by one window then runs its next
    // window beside this batch, not after it (with two shards they
    // would otherwise take turns for the rest of the run).
    SimTime next_pub =
        publish && sh.lookahead > 0
            ? satAdd(sh.bound.load(std::memory_order_relaxed),
                     sh.lookahead)
            : kMaxSimTime;
    SimTime nt = sh.sim.nextEventTime();
    while (nt < h && nt <= until &&
           !stopping_.load(std::memory_order_relaxed)) {
        sh.sim.executeNext();
        if (sh.sim.stopRequested()) {
            stop();
            break;
        }
        nt = sh.sim.nextEventTime();
        if (nt >= next_pub) {
            SimTime b = std::min({nt, h, cap});
            publishBound(sh, b, true);
            next_pub = satAdd(b, sh.lookahead);
        }
    }
    std::uint64_t ran = sh.sim.eventsProcessed() - before;
    sh.stats.events += ran;
    return ran;
}

SimTime
ShardedSimulator::horizon(ShardId s) const
{
    SimTime h = kMaxSimTime;
    for (ShardId o = 0; o < shards_.size(); ++o) {
        if (o == s)
            continue;
        const Shard &sh = *shards_[o];
        h = std::min(h, satAdd(sh.bound.load(std::memory_order_seq_cst),
                               sh.lookahead));
    }
    return h;
}

void
ShardedSimulator::publishBound(Shard &sh, SimTime b, bool progress)
{
    if (b <= sh.bound.load(std::memory_order_relaxed))
        return;
    sh.bound.store(b, std::memory_order_seq_cst);
    ++sh.stats.rounds;
    // Restart a partial census: its members may be able to run now.
    std::uint64_t v = sync_.load(std::memory_order_seq_cst);
    while (progress && waitingOf(v) != 0 &&
           !sync_.compare_exchange_weak(v, (epochOf(v) + 1) << 32,
                                        std::memory_order_seq_cst)) {
    }
    wakeSleepers();
}

template <typename Ready>
void
ShardedSimulator::backOff(int &polls, Ready ready)
{
    if (polls < kSpinPolls) {
        ++polls;
        cpuRelax();
    } else if (polls < kSpinPolls + kYieldPolls) {
        ++polls;
        std::this_thread::yield();
    } else {
        park(ready);
    }
}

template <typename Ready>
void
ShardedSimulator::park(Ready ready)
{
    // Announce the sleep before re-checking: a waker either sees the
    // announcement and bumps wake_, or made its change visible to
    // the re-check (all seq_cst).
    std::uint32_t e = wake_.load(std::memory_order_seq_cst);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (!ready())
        wake_.wait(e, std::memory_order_seq_cst);
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
}

void
ShardedSimulator::wakeSleepers()
{
    if (sleepers_.load(std::memory_order_seq_cst) == 0)
        return;
    wake_.fetch_add(1, std::memory_order_seq_cst);
    wake_.notify_all();
}

} // namespace vcp

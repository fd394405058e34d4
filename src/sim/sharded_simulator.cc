#include "sim/sharded_simulator.hh"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>

#include "sim/logging.hh"
#include "sim/parallel_sweep.hh"

namespace vcp {

namespace {

/** Executing shard of this thread (post() routing and assertions). */
thread_local ShardId tls_shard = ~ShardId(0);

/** Trace-lane window cap per shard (16 B each). */
constexpr std::size_t kMaxWindowsPerShard = 16384;

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
                    opts_.mailbox_capacity));
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

void
ShardedSimulator::setLookahead(ShardId s, SimDuration la)
{
    if (running_.load())
        panic("ShardedSimulator::setLookahead while running");
    if (la < 0)
        panic("ShardedSimulator::setLookahead: negative lookahead");
    shards_.at(s)->lookahead = la;
}

SimDuration
ShardedSimulator::lookahead(ShardId s) const
{
    return shards_.at(s)->lookahead;
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
    stopping_.store(true, std::memory_order_release);
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
    cross_pending_.fetch_add(1, std::memory_order_release);
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
    if (n) {
        sh.stats.cross_received += n;
        cross_pending_.fetch_sub(static_cast<std::int64_t>(n),
                                 std::memory_order_acq_rel);
    }
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
    for (auto &sh : shards_) {
        sh->sim.stopping = false;
        sh->bound.store(sh->sim.now(), std::memory_order_relaxed);
    }
    done_flag_.store(false);
    std::barrier<> bar(static_cast<std::ptrdiff_t>(K));
    std::vector<std::thread> threads;
    threads.reserve(K - 1);
    for (ShardId s = 1; s < K; ++s)
        threads.emplace_back(
            [this, s, until, &bar] { worker(s, until, bar); });
    worker(0, until, bar);
    for (std::thread &t : threads)
        t.join();
    // A drain run (until == kMaxSimTime) leaves each clock at its
    // shard's last event, matching serial run() semantics.
    if (until != kMaxSimTime && !stopping_.load())
        for (auto &sh : shards_)
            sh->sim.forceClock(until);
}

void
ShardedSimulator::worker(ShardId s, SimTime until, std::barrier<> &bar)
{
    Shard &sh = *shards_[s];
    const std::size_t K = shards_.size();
    tls_shard = s;
    // Wall-clock time parked at round barriers, attributed to this
    // shard — the telemetry export's load-imbalance signal.
    auto timedBarrier = [&sh, &bar] {
        auto t0 = std::chrono::steady_clock::now();
        bar.arrive_and_wait();
        auto dt = std::chrono::steady_clock::now() - t0;
        sh.stats.barrier_wait_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count());
    };
    for (;;) {
        // (1) Adopt every delivery from completed rounds, then
        // (2) publish this shard's send bound for the round: no event
        // it can still execute — and therefore no send it can still
        // make — happens before min(next local event, until).
        drainInboxes(sh);
        SimTime local_next = sh.sim.nextEventTime();
        SimTime bound = std::min(local_next, until);
        sh.bound.store(bound, std::memory_order_release);
        timedBarrier();

        // (3) Execute the window admitted by every *other* shard's
        // bound plus its declared lookahead.  Any send they can still
        // make lands at >= bound + lookahead >= H, so nothing can
        // arrive in this window's past — even over zero-lookahead
        // edges and chains through third shards.
        SimTime h = until;
        for (ShardId o = 0; o < K; ++o) {
            if (o == s)
                continue;
            SimTime b =
                shards_[o]->bound.load(std::memory_order_acquire);
            SimDuration la = shards_[o]->lookahead;
            SimTime safe =
                b > kMaxSimTime - la ? kMaxSimTime : b + la;
            h = std::min(h, safe);
        }
        ++sh.stats.rounds;
        std::uint64_t before = sh.sim.eventsProcessed();
        SimTime wstart = sh.sim.now();
        while (!stopping_.load(std::memory_order_relaxed) &&
               !sh.sim.stopRequested()) {
            SimTime nt = sh.sim.nextEventTime();
            if (nt == kMaxSimTime || nt > h)
                break;
            sh.sim.executeNext();
        }
        if (sh.sim.stopRequested())
            stopping_.store(true, std::memory_order_release);
        std::uint64_t ran = sh.sim.eventsProcessed() - before;
        sh.stats.events += ran;
        if (ran == 0 && local_next <= until)
            ++sh.stats.stalled_rounds;
        if (ran && opts_.collect_windows &&
            sh.windows.size() < kMaxWindowsPerShard)
            sh.windows.push_back({wstart, sh.sim.now(),
                                  static_cast<std::uint32_t>(
                                      std::min<std::uint64_t>(
                                          ran, UINT32_MAX))});
        timedBarrier();

        // (4) Termination, decided by shard 0 alone while the others
        // hold at the closing barrier (so the counters it reads are
        // quiescent): every bound at `until` and no cross event still
        // in a mailbox.  Bounds are pre-window, but a bound of
        // `until` admits the full window, so any work it spawned
        // either already ran or shows up in cross_pending_.
        if (s == 0) {
            bool done = stopping_.load(std::memory_order_relaxed);
            if (!done &&
                cross_pending_.load(std::memory_order_acquire) == 0) {
                done = true;
                for (const auto &o : shards_) {
                    if (o->bound.load(std::memory_order_relaxed) <
                        until) {
                        done = false;
                        break;
                    }
                }
            }
            done_flag_.store(done, std::memory_order_release);
            ++rounds_;
        }
        timedBarrier();
        if (done_flag_.load(std::memory_order_acquire))
            break;
    }
    tls_shard = kNoShard;
}

const std::vector<ShardedSimulator::Window> &
ShardedSimulator::shardWindows(ShardId s) const
{
    return shards_.at(s)->windows;
}

} // namespace vcp

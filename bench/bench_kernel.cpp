/**
 * @file
 * Kernel microbenchmarks (google-benchmark): raw throughput of the
 * simulation substrate — event queue, service center, lock manager,
 * histogram, and the processor-sharing pipe.  These bound how large
 * a cloud and how long a window the characterization benches can
 * afford.
 */

#include <benchmark/benchmark.h>

#include "controlplane/lock_manager.hh"
#include "infra/bandwidth.hh"
#include "sim/service_center.hh"
#include "sim/sharded_simulator.hh"
#include "sim/simulator.hh"
#include "stats/histogram.hh"

namespace vcp {
namespace {

void
BM_EventScheduleRun(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulator sim;
        for (int i = 0; i < batch; ++i)
            sim.schedule(i % 1000, [] {});
        sim.run();
        benchmark::DoNotOptimize(sim.eventsProcessed());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventScheduleRun)->Arg(1000)->Arg(100000);

void
BM_EventCancelHeavy(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulator sim;
        std::vector<EventId> ids;
        ids.reserve(static_cast<std::size_t>(batch));
        for (int i = 0; i < batch; ++i)
            ids.push_back(sim.schedule(i % 1000, [] {}));
        for (int i = 0; i < batch; i += 2)
            sim.cancel(ids[static_cast<std::size_t>(i)]);
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventCancelHeavy)->Arg(100000);

void
BM_EventChurnCancelReschedule(benchmark::State &state)
{
    // The lease/HA timeout pattern: every completion cancels its
    // pending timeout and schedules a new one, so the queue sees a
    // steady stream of cancels that (unlike BM_EventCancelHeavy)
    // never drain — the standing population stays constant while ids
    // churn.  This is the worst case for cancel bookkeeping.
    const int standing = static_cast<int>(state.range(0));
    const int rounds = 10;
    for (auto _ : state) {
        Simulator sim;
        std::vector<EventId> timeouts;
        timeouts.reserve(static_cast<std::size_t>(standing));
        for (int i = 0; i < standing; ++i)
            timeouts.push_back(
                sim.schedule(1000000 + i, [] {}));
        for (int r = 0; r < rounds; ++r) {
            for (int i = 0; i < standing; ++i) {
                sim.cancel(timeouts[static_cast<std::size_t>(i)]);
                timeouts[static_cast<std::size_t>(i)] =
                    sim.schedule(1000000 + r * standing + i, [] {});
            }
        }
        for (EventId id : timeouts)
            sim.cancel(id);
        sim.run();
        benchmark::DoNotOptimize(sim.now());
    }
    state.SetItemsProcessed(state.iterations() * standing * rounds);
}
BENCHMARK(BM_EventChurnCancelReschedule)->Arg(1000)->Arg(10000);

/** Payload for the capture-size sweep; Bytes total capture. */
template <std::size_t Bytes>
void
scheduleWithCapture(Simulator &sim, int batch)
{
    struct Payload
    {
        unsigned char data[Bytes];
    };
    Payload p{};
    p.data[0] = 1;
    for (int i = 0; i < batch; ++i)
        sim.schedule(i % 1000, [p] {
            benchmark::DoNotOptimize(p.data[0]);
        });
}

template <std::size_t Bytes>
void
BM_InlineActionCapture(benchmark::State &state)
{
    // Schedule+run cost as the capture grows: everything up to
    // InlineAction::kInlineSize stays in the event; one byte past it
    // pays a heap allocation per event (the std::function world paid
    // it at ~16 bytes).
    const int batch = 10000;
    for (auto _ : state) {
        Simulator sim;
        scheduleWithCapture<Bytes>(sim, batch);
        sim.run();
        benchmark::DoNotOptimize(sim.eventsProcessed());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_InlineActionCapture<8>);
BENCHMARK(BM_InlineActionCapture<24>);
BENCHMARK(BM_InlineActionCapture<48>);   // last inline size
BENCHMARK(BM_InlineActionCapture<56>);   // first heap fallback
BENCHMARK(BM_InlineActionCapture<128>);

void
BM_ServiceCenterThroughput(benchmark::State &state)
{
    const int jobs = 100000;
    const int servers = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulator sim;
        ServiceCenter sc(sim, "bench", servers);
        for (int i = 0; i < jobs; ++i)
            sc.submit(100, [] {});
        sim.run();
        benchmark::DoNotOptimize(sc.completed());
    }
    state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_ServiceCenterThroughput)->Arg(1)->Arg(8)->Arg(64);

void
BM_LockAcquireRelease(benchmark::State &state)
{
    const int rounds = 50000;
    for (auto _ : state) {
        Simulator sim;
        LockManager lm(sim);
        for (int i = 0; i < rounds; ++i) {
            std::vector<LockRequest> reqs = {
                {lockKey(VmId(i % 64)), LockMode::Exclusive},
                {lockKey(HostId(i % 8)), LockMode::Shared},
            };
            lm.acquireAll(reqs, [&lm, reqs] {
                lm.releaseAll(reqs);
            });
        }
        sim.run();
        benchmark::DoNotOptimize(lm.grants());
    }
    state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_LockAcquireRelease);

void
BM_HistogramAddQuantile(benchmark::State &state)
{
    Rng rng(1);
    Histogram h(1.0, 1.15, 256);
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            h.add(rng.exponential(1000.0));
        benchmark::DoNotOptimize(h.p95());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_HistogramAddQuantile);

/** Per-shard self-perpetuating load for the sharded-kernel bench:
 *  a chain of local events that posts to the next shard every 64th
 *  step (cross traffic honours the engine lookahead). */
struct ShardPump
{
    ShardedSimulator *eng = nullptr;
    ShardId id = 0;
    int remaining = 0;
    std::uint64_t acc = 0;

    void step()
    {
        Simulator &sim = eng->shard(id);
        if (--remaining <= 0)
            return;
        acc += static_cast<std::uint64_t>(sim.now());
        if ((remaining & 63) == 0) {
            ShardId dst = static_cast<ShardId>(
                (id + 1) % static_cast<ShardId>(eng->numShards()));
            if (dst != id)
                eng->post(id, dst, sim.now() + 100, 0, [] {});
        }
        ShardPump *self = this;
        sim.schedule(10, [self] { self->step(); });
    }
};

void
BM_ShardedKernelPump(benchmark::State &state)
{
    // args: {shards, threaded}.  Merge rows measure the engine's
    // determinism-preserving overhead vs BM_EventScheduleRun;
    // threaded rows measure real-thread conservative execution
    // (speedup needs cores — on a single-CPU host they document the
    // round-protocol cost instead).
    const int shards = static_cast<int>(state.range(0));
    const bool threaded = state.range(1) != 0;
    const int per_shard = 20000;
    for (auto _ : state) {
        ShardedSimulator::Options o;
        o.mode = threaded ? ShardExecMode::Threaded
                          : ShardExecMode::Merge;
        o.lookahead = 100;
        ShardedSimulator eng(shards, 1, o);
        std::vector<ShardPump> pumps(
            static_cast<std::size_t>(shards));
        for (int s = 0; s < shards; ++s) {
            pumps[static_cast<std::size_t>(s)] = {
                &eng, static_cast<ShardId>(s), per_shard, 0};
            ShardPump *p = &pumps[static_cast<std::size_t>(s)];
            eng.shard(static_cast<ShardId>(s))
                .schedule(10, [p] { p->step(); });
        }
        eng.run();
        benchmark::DoNotOptimize(eng.eventsProcessed());
    }
    state.SetItemsProcessed(state.iterations() * per_shard *
                            shards);
}
BENCHMARK(BM_ShardedKernelPump)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1});

void
BM_SharedBandwidthChurn(benchmark::State &state)
{
    // Heavily overlapping transfers make the PS recompute O(n) per
    // membership change; keep n moderate so the default run stays
    // fast.
    const int transfers = 4000;
    for (auto _ : state) {
        Simulator sim;
        SharedBandwidthResource pipe(sim, "bench", 1e9);
        Rng rng(3);
        for (int i = 0; i < transfers; ++i) {
            SimDuration at = rng.uniformInt(0, seconds(10));
            Bytes sz = rng.uniformInt(1, 10000000);
            sim.schedule(at, [&pipe, sz] {
                pipe.startTransfer(sz, [] {});
            });
        }
        sim.run();
        benchmark::DoNotOptimize(pipe.bytesCompleted());
    }
    state.SetItemsProcessed(state.iterations() * transfers);
}
BENCHMARK(BM_SharedBandwidthChurn);

} // namespace
} // namespace vcp

BENCHMARK_MAIN();

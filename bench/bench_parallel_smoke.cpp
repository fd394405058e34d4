/**
 * @file
 * Parallel-execution smoke gate (ctest: perf_smoke_parallel).
 *
 * Two checks, both cheap enough for every CI run:
 *
 *  1. Identity: a short F3 slice executed serially and under the
 *     sharded engine's deterministic merge (K=8) must produce a
 *     byte-identical stats registry — the oracle property the whole
 *     parallel kernel rests on.
 *
 *  2. Speedup sanity: a shard-closed synthetic load run Threaded
 *     must not be catastrophically slower than the same load run
 *     serially, and on machines with enough cores it must actually
 *     be faster.  The speedup floor is gated on
 *     hardware_concurrency: a single-CPU host can only time-slice
 *     the workers, so there the check degrades to reporting the
 *     measured ratio (and a generous slowdown ceiling).
 */

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.hh"
#include "sim/sharded_simulator.hh"

namespace {

using namespace vcp;

/** The F3 slice artifact under a given shard count. */
std::string
f3Artifact(int shards, std::uint64_t *events = nullptr)
{
    CloudSetupSpec spec = sweepCloud(/*linked=*/true);
    spec.workload.duration = minutes(2);
    spec.workload.arrival.rate_per_hour = 7680.0;
    spec.server.dispatch_width = 16;
    spec.exec.shards = shards;
    CloudSimulation cs(spec, /*seed=*/31);
    cs.start();
    cs.runFor(minutes(2));
    cs.runFor(minutes(30));
    if (events)
        *events = cs.eventsProcessed();
    return cs.stats().toCsv();
}

/** Shard-closed synthetic load: per-shard event chains with light
 *  cross-shard traffic; returns wall seconds. */
double
pumpSeconds(int shards, ShardExecMode mode)
{
    // One pump per cache line: each shard's events write `remaining`.
    struct alignas(64) Pump
    {
        ShardedSimulator *eng;
        ShardId id;
        int remaining;

        void step()
        {
            Simulator &sim = eng->shard(id);
            if (--remaining <= 0)
                return;
            if ((remaining & 63) == 0 && eng->numShards() > 1) {
                ShardId dst = static_cast<ShardId>(
                    (id + 1) %
                    static_cast<ShardId>(eng->numShards()));
                eng->post(id, dst, sim.now() + 100, 0, [] {});
            }
            Pump *self = this;
            sim.schedule(10, [self] { self->step(); });
        }
    };

    ShardedSimulator::Options o;
    o.mode = mode;
    o.lookahead = 100;
    ShardedSimulator eng(shards, 1, o);
    std::vector<Pump> pumps;
    pumps.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s)
        pumps.push_back({&eng, static_cast<ShardId>(s), 400000});
    auto t0 = std::chrono::steady_clock::now();
    for (Pump &p : pumps) {
        Pump *pp = &p;
        eng.shard(pp->id).schedule(10, [pp] { pp->step(); });
    }
    eng.run();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    setLogQuiet(true);

    // 1. Byte-identity of the sharded merge against serial.
    std::uint64_t serial_events = 0, sharded_events = 0;
    std::string serial = f3Artifact(1, &serial_events);
    std::string sharded = f3Artifact(8, &sharded_events);
    if (serial != sharded || serial_events != sharded_events) {
        std::fprintf(stderr,
                     "FAIL: sharded merge diverged from serial "
                     "(%llu vs %llu events; csv %s)\n",
                     (unsigned long long)serial_events,
                     (unsigned long long)sharded_events,
                     serial == sharded ? "equal" : "DIFFERENT");
        return 1;
    }
    std::printf("identity: serial == merge(K=8), %llu events, "
                "stats byte-identical\n",
                (unsigned long long)serial_events);

    // 2. Threaded speedup sanity on a shard-closed load.
    const unsigned cores = std::thread::hardware_concurrency();
    const int k = 4;
    double serial_s = pumpSeconds(k, ShardExecMode::Merge);
    double threaded_s = pumpSeconds(k, ShardExecMode::Threaded);
    double ratio = serial_s / threaded_s;
    std::printf("threaded sanity: K=%d merge %.3fs, threaded %.3fs "
                "(speedup %.2fx, %u cores)\n",
                k, serial_s, threaded_s, ratio, cores);
    if (cores >= static_cast<unsigned>(k)) {
        // Enough cores to genuinely parallelize: demand a real win.
        if (ratio < 1.5) {
            std::fprintf(stderr,
                         "FAIL: threaded speedup %.2fx < 1.5x floor "
                         "with %u cores\n",
                         ratio, cores);
            return 1;
        }
    } else if (ratio < 0.05) {
        // Time-sliced workers can't beat serial, but a 20x blowup
        // means the round protocol is spinning, not working.
        std::fprintf(stderr,
                     "FAIL: threaded run %.1fx slower than serial "
                     "on a %u-core host — protocol overhead blowup\n",
                     1.0 / ratio, cores);
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}

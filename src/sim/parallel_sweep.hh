/**
 * @file
 * Thread-pool runner for embarrassingly parallel simulation sweeps.
 *
 * The kernel is singleton-free by design: any number of Simulator
 * instances can coexist, each owning its clock, event set, and RNG.
 * Sweep benches (F3/F5/F7, the A3 federation ablation) and vcpsim's
 * sweep mode exploit that by running every sweep point as an
 * independent simulation on a worker thread.
 *
 * Determinism contract: the runner guarantees fn(i) is invoked
 * exactly once for every i with nothing shared between points, so as
 * long as each point derives its seed from its *index* (use
 * forkSeed()) and writes only to its own result slot, a parallel run
 * is bit-identical to a serial run of the same sweep — thread count
 * and scheduling cannot leak into results.  Model code must also not
 * log through shared streams while a sweep is in flight (benches run
 * with setLogQuiet(true)).
 */

#ifndef VCP_SIM_PARALLEL_SWEEP_HH
#define VCP_SIM_PARALLEL_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace vcp {

/** Runs independent sweep points across a pool of worker threads. */
class ParallelSweepRunner
{
  public:
    /**
     * @param threads worker count; 0 picks the hardware
     *        concurrency, 1 forces fully serial in-thread execution.
     */
    explicit ParallelSweepRunner(int threads = 0);

    /** Resolved worker count. */
    int threads() const { return nthreads; }

    /**
     * Invoke fn(i) for every i in [0, points), distributing points
     * across the workers.  Blocks until all points finish.  The
     * first exception thrown by any point is rethrown here (after
     * all workers have stopped).
     */
    void run(std::size_t points,
             const std::function<void(std::size_t)> &fn) const;

    /**
     * Derive an independent per-point seed from a base seed and the
     * point index (splitmix64).  Depends only on (base, index), never
     * on thread assignment — the keystone of serial/parallel
     * bit-identical sweeps.
     */
    static std::uint64_t forkSeed(std::uint64_t base,
                                  std::uint64_t index);

  private:
    int nthreads;
};

} // namespace vcp

#endif // VCP_SIM_PARALLEL_SWEEP_HH

#include "sim/parallel_sweep.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/cpu_spread.hh"

namespace vcp {

ParallelSweepRunner::ParallelSweepRunner(int threads)
{
    if (threads <= 0)
        threads =
            static_cast<int>(std::thread::hardware_concurrency());
    nthreads = threads > 0 ? threads : 1;
}

void
ParallelSweepRunner::run(
    std::size_t points,
    const std::function<void(std::size_t)> &fn) const
{
    if (points == 0)
        return;
    std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(nthreads),
                              points);
    if (workers <= 1) {
        for (std::size_t i = 0; i < points; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    const CpuSpread spread;
    auto worker = [&](std::size_t t) {
        spread.place(t);
        for (;;) {
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= points)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        pool.emplace_back(worker, t);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

std::uint64_t
ParallelSweepRunner::forkSeed(std::uint64_t base, std::uint64_t index)
{
    // splitmix64 over the combined word: cheap, well-mixed, and a
    // pure function of (base, index).
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace vcp

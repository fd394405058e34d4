/**
 * @file
 * Unit tests for ParallelSweepRunner: point coverage, exception
 * propagation, thread-count resolution, and seed forking.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/parallel_sweep.hh"

namespace vcp {
namespace {

TEST(ParallelSweepTest, SerialRunnerVisitsEveryPointInOrder)
{
    ParallelSweepRunner runner(1);
    EXPECT_EQ(runner.threads(), 1);
    std::vector<std::size_t> visited;
    runner.run(5, [&](std::size_t i) { visited.push_back(i); });
    EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelSweepTest, ParallelRunnerVisitsEveryPointOnce)
{
    ParallelSweepRunner runner(4);
    const std::size_t points = 100;
    std::vector<std::atomic<int>> hits(points);
    runner.run(points,
               [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < points; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "point " << i;
}

TEST(ParallelSweepTest, ZeroPointsIsANoop)
{
    ParallelSweepRunner runner(4);
    runner.run(0, [](std::size_t) { FAIL() << "fn called"; });
}

TEST(ParallelSweepTest, FirstExceptionIsRethrown)
{
    ParallelSweepRunner runner(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        runner.run(50,
                   [&](std::size_t i) {
                       if (i == 7)
                           throw std::runtime_error("point 7");
                       completed.fetch_add(1);
                   }),
        std::runtime_error);
    // Other points still ran; the runner drains before rethrowing.
    EXPECT_EQ(completed.load(), 49);
}

TEST(ParallelSweepTest, SerialExceptionAlsoPropagates)
{
    ParallelSweepRunner runner(1);
    EXPECT_THROW(runner.run(3,
                            [](std::size_t) {
                                throw std::runtime_error("boom");
                            }),
                 std::runtime_error);
}

TEST(ParallelSweepTest, AutoThreadsPicksAtLeastOne)
{
    ParallelSweepRunner runner(0);
    EXPECT_GE(runner.threads(), 1);
}

TEST(ParallelSweepTest, ForkSeedIsAPureFunctionOfBaseAndIndex)
{
    EXPECT_EQ(ParallelSweepRunner::forkSeed(31, 4),
              ParallelSweepRunner::forkSeed(31, 4));
    EXPECT_NE(ParallelSweepRunner::forkSeed(31, 4),
              ParallelSweepRunner::forkSeed(31, 5));
    EXPECT_NE(ParallelSweepRunner::forkSeed(31, 4),
              ParallelSweepRunner::forkSeed(32, 4));
}

TEST(ParallelSweepTest, ForkSeedAvoidsCollisionsOverASweepGrid)
{
    // Distinct (base, index) pairs from a realistic sweep must not
    // collide, or two points would silently share an RNG stream.
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {1ull, 31ull, 51ull, 71ull, 111ull}) {
        for (std::uint64_t i = 0; i < 1000; ++i)
            seen.insert(ParallelSweepRunner::forkSeed(base, i));
    }
    EXPECT_EQ(seen.size(), 5u * 1000u);
}

} // namespace
} // namespace vcp

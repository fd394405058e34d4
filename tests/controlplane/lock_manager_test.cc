/**
 * @file
 * Tests for the entity lock manager: compatibility, FIFO fairness,
 * multi-lock acquisition, and a randomized no-deadlock /
 * mutual-exclusion property.
 */

#include <gtest/gtest.h>

#include <vector>

#include "controlplane/lock_manager.hh"
#include "sim/logging.hh"

namespace vcp {
namespace {

LockRequest
xlock(VmId v)
{
    return {lockKey(v), LockMode::Exclusive};
}

LockRequest
slock(VmId v)
{
    return {lockKey(v), LockMode::Shared};
}

TEST(LockManagerTest, UncontendedExclusiveGrantsImmediately)
{
    Simulator sim;
    LockManager lm(sim);
    bool granted = false;
    lm.acquireAll({xlock(VmId(1))}, [&] { granted = true; });
    EXPECT_TRUE(granted);
    EXPECT_EQ(lm.holders(lockKey(VmId(1))), 1);
    lm.releaseAll({xlock(VmId(1))});
    EXPECT_EQ(lm.holders(lockKey(VmId(1))), 0);
}

TEST(LockManagerTest, SharedLocksCoexist)
{
    Simulator sim;
    LockManager lm(sim);
    int granted = 0;
    lm.acquireAll({slock(VmId(1))}, [&] { ++granted; });
    lm.acquireAll({slock(VmId(1))}, [&] { ++granted; });
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(lm.holders(lockKey(VmId(1))), 2);
}

TEST(LockManagerTest, ExclusiveWaitsForShared)
{
    Simulator sim;
    LockManager lm(sim);
    bool x_granted = false;
    lm.acquireAll({slock(VmId(1))}, [] {});
    lm.acquireAll({xlock(VmId(1))}, [&] { x_granted = true; });
    EXPECT_FALSE(x_granted);
    EXPECT_EQ(lm.waiters(lockKey(VmId(1))), 1u);
    lm.releaseAll({slock(VmId(1))});
    // Grants are delivered through zero-delay events.
    sim.run();
    EXPECT_TRUE(x_granted);
}

TEST(LockManagerTest, SharedWaitsForExclusive)
{
    Simulator sim;
    LockManager lm(sim);
    bool s_granted = false;
    lm.acquireAll({xlock(VmId(1))}, [] {});
    lm.acquireAll({slock(VmId(1))}, [&] { s_granted = true; });
    EXPECT_FALSE(s_granted);
    lm.releaseAll({xlock(VmId(1))});
    sim.run();
    EXPECT_TRUE(s_granted);
}

TEST(LockManagerTest, FifoPreventsWriterStarvation)
{
    Simulator sim;
    LockManager lm(sim);
    std::vector<int> order;
    lm.acquireAll({slock(VmId(1))}, [&] { order.push_back(0); });
    lm.acquireAll({xlock(VmId(1))}, [&] { order.push_back(1); });
    // A later shared request must NOT jump the queued writer.
    lm.acquireAll({slock(VmId(1))}, [&] { order.push_back(2); });
    EXPECT_EQ(order, (std::vector<int>{0}));
    lm.releaseAll({slock(VmId(1))});
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    lm.releaseAll({xlock(VmId(1))});
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(LockManagerTest, BatchedSharedWakeup)
{
    Simulator sim;
    LockManager lm(sim);
    int granted = 0;
    lm.acquireAll({xlock(VmId(1))}, [] {});
    lm.acquireAll({slock(VmId(1))}, [&] { ++granted; });
    lm.acquireAll({slock(VmId(1))}, [&] { ++granted; });
    lm.releaseAll({xlock(VmId(1))});
    sim.run();
    // Both queued readers wake together.
    EXPECT_EQ(granted, 2);
}

TEST(LockManagerTest, MultiLockAcquiresAll)
{
    Simulator sim;
    LockManager lm(sim);
    bool granted = false;
    lm.acquireAll({xlock(VmId(1)), xlock(VmId(2)),
                   {lockKey(HostId(3)), LockMode::Shared}},
                  [&] { granted = true; });
    EXPECT_TRUE(granted);
    EXPECT_EQ(lm.holders(lockKey(VmId(1))), 1);
    EXPECT_EQ(lm.holders(lockKey(VmId(2))), 1);
    EXPECT_EQ(lm.holders(lockKey(HostId(3))), 1);
}

TEST(LockManagerTest, VmAndHostKeysAreDistinct)
{
    Simulator sim;
    LockManager lm(sim);
    int granted = 0;
    // Same numeric id, different entity kinds: no conflict.
    lm.acquireAll({xlock(VmId(5))}, [&] { ++granted; });
    lm.acquireAll({{lockKey(HostId(5)), LockMode::Exclusive}},
                  [&] { ++granted; });
    EXPECT_EQ(granted, 2);
}

TEST(LockManagerTest, OpposingOrderMultiLockNoDeadlock)
{
    Simulator sim;
    LockManager lm(sim);
    int granted = 0;
    // Two acquisitions naming the same keys in opposite orders.
    lm.acquireAll({xlock(VmId(1)), xlock(VmId(2))}, [&] {
        ++granted;
        sim.schedule(10, [&] {
            lm.releaseAll({xlock(VmId(1)), xlock(VmId(2))});
        });
    });
    lm.acquireAll({xlock(VmId(2)), xlock(VmId(1))},
                  [&] { ++granted; });
    sim.run();
    EXPECT_EQ(granted, 2);
}

TEST(LockManagerTest, ReleaseWithoutHoldPanics)
{
    Simulator sim;
    LockManager lm(sim);
    EXPECT_THROW(lm.releaseAll({xlock(VmId(9))}), PanicError);

    lm.acquireAll({slock(VmId(1))}, [] {});
    EXPECT_THROW(lm.releaseAll({xlock(VmId(1))}), PanicError);
}

TEST(LockManagerTest, WaitTimesRecorded)
{
    Simulator sim;
    LockManager lm(sim);
    SimTime second_granted = -1;
    lm.acquireAll({xlock(VmId(1))}, [] {});
    lm.acquireAll({xlock(VmId(1))},
                  [&] { second_granted = sim.now(); });
    sim.schedule(seconds(3),
                 [&] { lm.releaseAll({xlock(VmId(1))}); });
    sim.run();
    EXPECT_EQ(lm.grants(), 2u);
    EXPECT_EQ(lm.contended(), 1u); // only the second grant waited
    EXPECT_EQ(second_granted, seconds(3));
}

/**
 * Property: under a random mix of multi-lock acquire/hold/release
 * cycles, every acquisition is eventually granted (no deadlock) and
 * exclusive holders are never concurrent with any other holder.
 */
class LockStressTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LockStressTest, AllGrantedMutualExclusionHolds)
{
    Simulator sim(GetParam());
    LockManager lm(sim);
    Rng rng(GetParam() * 977 + 1);

    const int keys = 6;
    const int ops = 400;
    int granted = 0;
    std::vector<int> shared_held(keys, 0);
    std::vector<int> exclusive_held(keys, 0);

    for (int i = 0; i < ops; ++i) {
        // Random subset of keys with random modes (one per key).
        std::vector<LockRequest> reqs;
        for (int k = 0; k < keys; ++k) {
            if (rng.bernoulli(0.4)) {
                LockMode m = rng.bernoulli(0.3)
                    ? LockMode::Exclusive
                    : LockMode::Shared;
                reqs.push_back({lockKey(VmId(k)), m});
            }
        }
        if (reqs.empty())
            reqs.push_back({lockKey(VmId(0)), LockMode::Shared});
        SimDuration at = rng.uniformInt(0, seconds(10));
        SimDuration hold = rng.uniformInt(1, msec(500));
        sim.schedule(at, [&, reqs, hold] {
            lm.acquireAll(reqs, [&, reqs, hold] {
                ++granted;
                for (const auto &r : reqs) {
                    int k = static_cast<int>(r.key.id);
                    if (r.mode == LockMode::Exclusive) {
                        // Mutual exclusion invariant.
                        EXPECT_EQ(shared_held[k], 0);
                        EXPECT_EQ(exclusive_held[k], 0);
                        exclusive_held[k]++;
                    } else {
                        EXPECT_EQ(exclusive_held[k], 0);
                        shared_held[k]++;
                    }
                }
                sim.schedule(hold, [&, reqs] {
                    for (const auto &r : reqs) {
                        int k = static_cast<int>(r.key.id);
                        if (r.mode == LockMode::Exclusive)
                            exclusive_held[k]--;
                        else
                            shared_held[k]--;
                    }
                    lm.releaseAll(reqs);
                });
            });
        });
    }
    sim.run();
    EXPECT_EQ(granted, ops);
    for (int k = 0; k < keys; ++k) {
        EXPECT_EQ(lm.holders(lockKey(VmId(k))), 0);
        EXPECT_EQ(lm.waiters(lockKey(VmId(k))), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockStressTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 42u));

} // namespace
} // namespace vcp

/**
 * @file
 * Tests for the task dispatch scheduler: width enforcement and the
 * three ordering policies.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "controlplane/scheduler.hh"
#include "sim/logging.hh"

namespace vcp {
namespace {

/**
 * The scheduler borrows Task pointers (the management server owns the
 * records in its arena); here a per-test factory keeps them alive.
 */
struct TaskFactory
{
    Task *
    make(std::int64_t id, TenantId tenant = TenantId(),
         int priority = 0)
    {
        OpRequest req;
        req.type = OpType::PowerOn;
        req.tenant = tenant;
        req.priority = priority;
        owned.push_back(std::make_unique<Task>(TaskId(id), req));
        return owned.back().get();
    }

    std::vector<std::unique_ptr<Task>> owned;
};

TEST(SchedulerTest, DispatchesUpToWidth)
{
    Simulator sim;
    TaskFactory tf;
    TaskScheduler sched(sim, SchedPolicy::Fifo, 2);
    int running = 0;
    for (int i = 0; i < 5; ++i)
        sched.enqueue(tf.make(i), [&] { ++running; });
    EXPECT_EQ(running, 2);
    EXPECT_EQ(sched.inFlight(), 2);
    EXPECT_EQ(sched.queueLength(), 3u);
}

TEST(SchedulerTest, CompletionDispatchesNext)
{
    Simulator sim;
    TaskFactory tf;
    TaskScheduler sched(sim, SchedPolicy::Fifo, 1);
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        sched.enqueue(tf.make(i), [&order, i] { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<int>{0}));
    sched.onTaskDone();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    sched.onTaskDone();
    sched.onTaskDone();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sched.inFlight(), 0);
}

TEST(SchedulerTest, OnTaskDoneWithNothingRunningPanics)
{
    Simulator sim;
    TaskScheduler sched(sim, SchedPolicy::Fifo, 1);
    EXPECT_THROW(sched.onTaskDone(), PanicError);
}

TEST(SchedulerTest, ZeroWidthFatal)
{
    Simulator sim;
    EXPECT_THROW(TaskScheduler(sim, SchedPolicy::Fifo, 0),
                 FatalError);
}

TEST(SchedulerTest, PriorityOrdersByValueThenFifo)
{
    Simulator sim;
    TaskFactory tf;
    TaskScheduler sched(sim, SchedPolicy::Priority, 1);
    std::vector<int> order;
    // Occupy the slot so the rest queue up.
    sched.enqueue(tf.make(99), [] {});
    sched.enqueue(tf.make(0, TenantId(), 5),
                  [&] { order.push_back(0); });
    sched.enqueue(tf.make(1, TenantId(), 1),
                  [&] { order.push_back(1); });
    sched.enqueue(tf.make(2, TenantId(), 5),
                  [&] { order.push_back(2); });
    sched.enqueue(tf.make(3, TenantId(), 0),
                  [&] { order.push_back(3); });
    for (int i = 0; i < 5; ++i)
        sched.onTaskDone();
    EXPECT_EQ(order, (std::vector<int>{3, 1, 0, 2}));
}

TEST(SchedulerTest, FifoIgnoresPriority)
{
    Simulator sim;
    TaskFactory tf;
    TaskScheduler sched(sim, SchedPolicy::Fifo, 1);
    std::vector<int> order;
    sched.enqueue(tf.make(99), [] {});
    sched.enqueue(tf.make(0, TenantId(), 9),
                  [&] { order.push_back(0); });
    sched.enqueue(tf.make(1, TenantId(), 0),
                  [&] { order.push_back(1); });
    sched.onTaskDone();
    sched.onTaskDone();
    sched.onTaskDone();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerTest, FairShareRoundRobinsAcrossTenants)
{
    Simulator sim;
    TaskFactory tf;
    TaskScheduler sched(sim, SchedPolicy::FairShare, 1);
    std::vector<std::pair<int, int>> order; // (tenant, seq)
    sched.enqueue(tf.make(99), [] {});
    // Tenant 1 floods; tenant 2 submits one.
    for (int i = 0; i < 4; ++i) {
        sched.enqueue(tf.make(i, TenantId(1)),
                      [&order, i] { order.push_back({1, i}); });
    }
    sched.enqueue(tf.make(50, TenantId(2)),
                  [&order] { order.push_back({2, 0}); });
    for (int i = 0; i < 6; ++i)
        sched.onTaskDone();
    // Tenant 2's single task must not be last.
    ASSERT_EQ(order.size(), 5u);
    bool tenant2_seen_early = false;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        if (order[i].first == 2)
            tenant2_seen_early = true;
    }
    EXPECT_TRUE(tenant2_seen_early);
    // Within tenant 1, FIFO order is preserved.
    int last_seq = -1;
    for (auto &p : order) {
        if (p.first == 1) {
            EXPECT_GT(p.second, last_seq);
            last_seq = p.second;
        }
    }
}

TEST(SchedulerTest, QueueWaitsMeasured)
{
    Simulator sim;
    TaskFactory tf;
    TaskScheduler sched(sim, SchedPolicy::Fifo, 1);
    Task *t0 = tf.make(0);
    Task *t1 = tf.make(1);
    sched.enqueue(t0, [] {});
    sched.enqueue(t1, [] {});
    sim.schedule(seconds(4), [&] { sched.onTaskDone(); });
    sim.run();
    EXPECT_EQ(t1->phaseTime(TaskPhase::Queue), seconds(4));
    EXPECT_EQ(t0->phaseTime(TaskPhase::Queue), 0);
    // Dispatch enters the Queue phase even after no wait.
    EXPECT_TRUE(t0->enteredPhase(TaskPhase::Queue));
}

TEST(SchedulerTest, UtilizationReflectsOccupancy)
{
    Simulator sim;
    TaskFactory tf;
    TaskScheduler sched(sim, SchedPolicy::Fifo, 2);
    sched.enqueue(tf.make(0), [] {});
    // One of two slots busy for 10 s.
    sim.schedule(seconds(10), [&] { sched.onTaskDone(); });
    sim.run();
    EXPECT_NEAR(sched.utilization(), 0.5, 1e-9);
}

TEST(SchedulerTest, DispatchCountAccumulates)
{
    Simulator sim;
    TaskFactory tf;
    TaskScheduler sched(sim, SchedPolicy::Fifo, 4);
    for (int i = 0; i < 7; ++i)
        sched.enqueue(tf.make(i), [] {});
    for (int i = 0; i < 4; ++i)
        sched.onTaskDone();
    EXPECT_EQ(sched.dispatched(), 7u);
}

} // namespace
} // namespace vcp

/**
 * @file
 * Tests for the c-server FIFO service center: queueing order,
 * concurrency limits, token (acquire/release) semantics, wait-time
 * accounting, and utilization.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/logging.hh"
#include "sim/service_center.hh"

namespace vcp {
namespace {

TEST(ServiceCenterTest, SingleServerSerializes)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    std::vector<SimTime> done_times;
    for (int i = 0; i < 3; ++i)
        sc.submit(seconds(1), [&] { done_times.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done_times.size(), 3u);
    EXPECT_EQ(done_times[0], seconds(1));
    EXPECT_EQ(done_times[1], seconds(2));
    EXPECT_EQ(done_times[2], seconds(3));
    EXPECT_EQ(sc.completed(), 3u);
}

TEST(ServiceCenterTest, MultipleServersRunInParallel)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 3);
    std::vector<SimTime> done_times;
    for (int i = 0; i < 3; ++i)
        sc.submit(seconds(1), [&] { done_times.push_back(sim.now()); });
    sim.run();
    for (SimTime t : done_times)
        EXPECT_EQ(t, seconds(1));
}

TEST(ServiceCenterTest, FourthJobWaitsBehindThree)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 3);
    SimTime fourth_done = 0;
    for (int i = 0; i < 3; ++i)
        sc.submit(seconds(1), [] {});
    sc.submit(seconds(1), [&] { fourth_done = sim.now(); });
    EXPECT_EQ(sc.queueLength(), 1u);
    EXPECT_EQ(sc.busyServers(), 3);
    sim.run();
    EXPECT_EQ(fourth_done, seconds(2));
}

TEST(ServiceCenterTest, FifoOrder)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sc.submit(msec(10), [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ServiceCenterTest, AcquireHoldsAcrossAsyncWork)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    SimTime second_granted = -1;
    sc.acquire([&] {
        // Hold the token across unrelated async work.
        sim.schedule(seconds(5), [&] { sc.release(); });
    });
    sc.acquire([&] {
        second_granted = sim.now();
        sc.release();
    });
    EXPECT_EQ(sc.busyServers(), 1);
    EXPECT_EQ(sc.queueLength(), 1u);
    sim.run();
    EXPECT_EQ(second_granted, seconds(5));
}

TEST(ServiceCenterTest, ReleaseWithoutAcquirePanics)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    EXPECT_THROW(sc.release(), PanicError);
}

TEST(ServiceCenterTest, NegativeServiceTimePanics)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    EXPECT_THROW(sc.submit(-1, [] {}), PanicError);
}

TEST(ServiceCenterTest, ZeroServersRejected)
{
    Simulator sim;
    EXPECT_THROW(ServiceCenter(sim, "t", 0), PanicError);
}

TEST(ServiceCenterTest, WaitTimesMeasured)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    sc.submit(seconds(2), [] {}); // waits 0
    sc.submit(seconds(1), [] {}); // waits 2 s
    sim.run();
    EXPECT_EQ(sc.granted(), 2u);
    EXPECT_EQ(sc.totalWait(), seconds(2));
    EXPECT_DOUBLE_EQ(sc.meanWait(), static_cast<double>(seconds(1)));
}

TEST(ServiceCenterTest, QueueAndBusyIntegralsFollowTheSchedule)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    // A 4 s job at 0; a 2 s job at 1 s waits to 4 s and runs to 6 s;
    // a 1 s job at 2 s waits to 6 s and runs to 7 s.
    sc.submit(seconds(4), [] {});
    sim.schedule(seconds(1), [&] { sc.submit(seconds(2), [] {}); });
    sim.schedule(seconds(2), [&] { sc.submit(seconds(1), [] {}); });
    sim.runUntil(seconds(3));
    // Queued 1 over [1, 2) and 2 over [2, 3); busy 1 over [0, 3).
    EXPECT_EQ(sc.queueLevel().level(), 2);
    EXPECT_EQ(sc.queueLevel().integralAt(seconds(3)), seconds(3));
    EXPECT_EQ(sc.busyLevel().integralAt(seconds(3)), seconds(3));

    sim.run();
    // Queued 1 + 2 x 2 + 1 x 2 level-seconds; busy 1 over [0, 7).
    EXPECT_EQ(sim.now(), seconds(7));
    EXPECT_EQ(sc.queueLevel().level(), 0);
    EXPECT_EQ(sc.busyLevel().level(), 0);
    EXPECT_EQ(sc.queueLevel().integralAt(seconds(10)), seconds(7));
    EXPECT_EQ(sc.busyLevel().integralAt(seconds(10)), seconds(7));
    EXPECT_EQ(sc.totalBusyTime(), seconds(7));
    // Waits of 0, 3 and 4 s: the queue integral, as Little's law says.
    EXPECT_EQ(sc.totalWait(), seconds(7));
}

TEST(ServiceCenterTest, UtilizationOfAlwaysBusyServerIsOne)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    for (int i = 0; i < 10; ++i)
        sc.submit(seconds(1), [] {});
    sim.run();
    EXPECT_NEAR(sc.utilization(), 1.0, 1e-9);
}

TEST(ServiceCenterTest, UtilizationHalfWhenIdleHalfTheTime)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    sc.submit(seconds(1), [] {});
    sim.run();               // now = 1 s, busy the whole time
    sim.runUntil(seconds(2)); // idle second
    EXPECT_NEAR(sc.utilization(), 0.5, 1e-9);
}

TEST(ServiceCenterTest, TwoServersHalfBusy)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 2);
    sc.submit(seconds(4), [] {});
    sim.run();
    EXPECT_NEAR(sc.utilization(), 0.5, 1e-9);
}

TEST(ServiceCenterTest, CompletionCallbackCanResubmit)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 1);
    int chain = 0;
    std::function<void()> next = [&]() {
        if (++chain < 5)
            sc.submit(msec(1), next);
    };
    sc.submit(msec(1), next);
    sim.run();
    EXPECT_EQ(chain, 5);
    EXPECT_EQ(sc.completed(), 5u);
}

TEST(ServiceCenterTest, ManyJobsConservation)
{
    Simulator sim;
    ServiceCenter sc(sim, "t", 4);
    int done = 0;
    for (int i = 0; i < 500; ++i)
        sc.submit(msec(i % 17 + 1), [&] { ++done; });
    sim.run();
    EXPECT_EQ(done, 500);
    EXPECT_EQ(sc.busyServers(), 0);
    EXPECT_EQ(sc.queueLength(), 0u);
}

} // namespace
} // namespace vcp

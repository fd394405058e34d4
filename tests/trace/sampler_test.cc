/**
 * @file
 * GaugeSampler tests: a started sampler records each level once and
 * then one (time, level) Counter record per change, schedules no
 * event, and records nothing unstarted, stopped, destroyed or with a
 * disabled tracer.
 */

#include <gtest/gtest.h>

#include "sim/level_integral.hh"
#include "sim/simulator.hh"
#include "trace/sampler.hh"
#include "trace/tracer.hh"

namespace vcp {
namespace {

TEST(GaugeSampler, UnstartedSamplerRecordsNothing)
{
    Simulator sim(1);
    SpanTracer tracer;
    LevelIntegral level;
    GaugeSampler sampler(sim, &tracer);
    sampler.addGauge("g", level);

    level.add(msec(5), 1);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(tracer.ring().totalRecorded(), 0u);
}

TEST(GaugeSampler, StartRecordsEachLevelOnceAndSchedulesNothing)
{
    Simulator sim(1);
    SpanTracer tracer;
    LevelIntegral a, b;
    a.add(0, 3);
    GaugeSampler sampler(sim, &tracer, msec(10));
    sampler.addGauge("a", a);
    sampler.addGauge("b", b);
    sim.schedule(msec(7), [] {});
    sim.runUntil(msec(4));
    std::size_t pending = sim.pendingEvents();

    sampler.start();
    EXPECT_EQ(sim.pendingEvents(), pending);
    auto snap = tracer.ring().snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].kind, SpanKind::Counter);
    EXPECT_EQ(tracer.internedNames().at(snap[0].name), "a");
    EXPECT_EQ(snap[0].start, msec(4));
    EXPECT_EQ(snap[0].duration, 3);
    EXPECT_EQ(tracer.internedNames().at(snap[1].name), "b");
    EXPECT_EQ(snap[1].start, msec(4));
    EXPECT_EQ(snap[1].duration, 0);

    // A second start() records nothing more.
    sampler.start();
    EXPECT_EQ(tracer.ring().totalRecorded(), 2u);
}

TEST(GaugeSampler, EachChangeRecordsOneTimeLevelPair)
{
    Simulator sim(1);
    SpanTracer tracer;
    LevelIntegral level;
    GaugeSampler sampler(sim, &tracer);
    sampler.addGauge("g", level);
    sampler.start();

    level.add(msec(5), 2);
    level.add(msec(5), -1); // same instant: recorded, not coalesced
    level.add(msec(9), 4);

    auto snap = tracer.ring().snapshot();
    ASSERT_EQ(snap.size(), 4u); // start() + three changes
    const SimTime want_t[] = {0, msec(5), msec(5), msec(9)};
    const std::int64_t want_v[] = {0, 2, 1, 5};
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].kind, SpanKind::Counter) << i;
        EXPECT_EQ(snap[i].name, snap[0].name) << i;
        EXPECT_EQ(snap[i].start, want_t[i]) << i;
        EXPECT_EQ(snap[i].duration, want_v[i]) << i;
    }
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(GaugeSampler, StopAndDestructionUnbind)
{
    Simulator sim(1);
    SpanTracer tracer;
    LevelIntegral stopped, destroyed;
    GaugeSampler sampler(sim, &tracer);
    sampler.addGauge("stopped", stopped);
    sampler.start();
    sampler.stop();
    {
        GaugeSampler scoped(sim, &tracer);
        scoped.addGauge("destroyed", destroyed);
        scoped.start();
    }
    std::uint64_t at_stop = tracer.ring().totalRecorded();
    EXPECT_EQ(at_stop, 2u);

    stopped.add(msec(1), 1);
    destroyed.add(msec(1), 1);
    EXPECT_EQ(tracer.ring().totalRecorded(), at_stop);
}

TEST(GaugeSampler, DisabledTracerRecordsNothing)
{
    Simulator sim(1);
    SpanTracer tracer;
    tracer.setEnabled(false);
    LevelIntegral level;
    GaugeSampler sampler(sim, &tracer);
    sampler.addGauge("g", level);

    sampler.start();
    level.add(msec(1), 1);
    EXPECT_EQ(tracer.ring().totalRecorded(), 0u);

    // Re-enabling mid-run resumes recording at the next change.
    tracer.setEnabled(true);
    level.add(msec(2), 1);
    auto snap = tracer.ring().snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].start, msec(2));
    EXPECT_EQ(snap[0].duration, 2);
}

TEST(GaugeSampler, NoTracerRecordsNothing)
{
    Simulator sim(1);
    LevelIntegral level;
    GaugeSampler sampler(sim, nullptr);
    sampler.addGauge("g", level);
    sampler.start();
    level.add(msec(1), 1);
    EXPECT_EQ(level.level(), 1);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

} // namespace
} // namespace vcp

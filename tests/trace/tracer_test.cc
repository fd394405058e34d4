/**
 * @file
 * SpanTracer unit tests: axes, interning, and what each record kind
 * puts in the ring.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace vcp {
namespace {

TracerConfig
cfgCap(std::size_t capacity = 1024)
{
    TracerConfig cfg;
    cfg.capacity = capacity;
    return cfg;
}

void
setTestAxes(SpanTracer &t)
{
    t.setAxes({"power-on", "clone-full"}, {"api", "queue", "db"},
              {"none", "oops"});
}

TEST(SpanTracer, GuardMacroTracksPointer)
{
    SpanTracer t(cfgCap());
    EXPECT_TRUE(VCP_TRACER_ON(&t));
    SpanTracer *none = nullptr;
    EXPECT_FALSE(VCP_TRACER_ON(none));
}

TEST(SpanTracer, SetAxesIsIdempotentForIdenticalAxes)
{
    SpanTracer t(cfgCap());
    setTestAxes(t);
    EXPECT_NO_THROW(setTestAxes(t));
    EXPECT_EQ(t.opNames().size(), 2u);
    EXPECT_EQ(t.phaseNames().size(), 3u);
    EXPECT_EQ(t.errorNames().size(), 2u);
}

TEST(SpanTracer, SetAxesPanicsOnConflict)
{
    SpanTracer t(cfgCap());
    setTestAxes(t);
    EXPECT_THROW(t.setAxes({"other"}, {"api"}, {"none"}), PanicError);
}

TEST(SpanTracer, InternReturnsStableIds)
{
    SpanTracer t(cfgCap());
    std::uint16_t a = t.intern("lock.wait");
    std::uint16_t b = t.intern("vapp.deploy");
    std::uint16_t a2 = t.intern("lock.wait");
    EXPECT_EQ(a, a2);
    EXPECT_NE(a, b);
    ASSERT_EQ(t.internedNames().size(), 2u);
    EXPECT_EQ(t.internedNames()[a], "lock.wait");
    EXPECT_EQ(t.internedNames()[b], "vapp.deploy");
}

TEST(SpanTracer, RecordKindsLandInRing)
{
    SpanTracer t(cfgCap());
    setTestAxes(t);
    std::uint16_t name = t.intern("x");
    t.recordSpan(name, 42, 10, 5);
    t.recordInstant(name, 43, 20);
    t.recordCounter(name, 30, 17);
    t.recordPhase(1, 2, 7, 100, 1000); // clone-full, db
    t.recordOp(1, 1, 7, 50, 5000);     // clone-full, error "oops"

    auto snap = t.ring().snapshot();
    ASSERT_EQ(snap.size(), 5u);
    EXPECT_EQ(snap[0].kind, SpanKind::Span);
    EXPECT_EQ(snap[0].scope, 42);
    EXPECT_EQ(snap[1].kind, SpanKind::Instant);
    EXPECT_EQ(snap[1].duration, 0);
    EXPECT_EQ(snap[2].kind, SpanKind::Counter);
    EXPECT_EQ(snap[2].duration, 17); // sampled value rides in duration
    // Phase and op records carry the op axis, and the phase or error
    // index in the name field.
    EXPECT_EQ(snap[3].kind, SpanKind::Phase);
    EXPECT_EQ(snap[3].op, 1);
    EXPECT_EQ(snap[3].name, 2);
    EXPECT_EQ(snap[3].scope, 7);
    EXPECT_EQ(snap[3].duration, 1000);
    EXPECT_EQ(snap[4].kind, SpanKind::Op);
    EXPECT_EQ(snap[4].op, 1);
    EXPECT_EQ(snap[4].name, 1);
    EXPECT_EQ(snap[4].duration, 5000);
}

} // namespace
} // namespace vcp

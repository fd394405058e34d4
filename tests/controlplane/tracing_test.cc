/**
 * @file
 * End-to-end tracing tests through the management server: every
 * pipeline phase of a real op shows up as one span record, phase
 * spans reconcile with the task's own phase accounting, and an
 * absent/disabled tracer changes nothing.
 */

#include <gtest/gtest.h>

#include <array>

#include "controlplane/task.hh"
#include "trace/tracer.hh"

#include "cp_fixture.hh"

namespace vcp {
namespace {

class TracingTest : public ControlPlaneFixture
{
  protected:
    OpRequest
    cloneFullReq() const
    {
        OpRequest req;
        req.type = OpType::CloneFull;
        req.vm = tmpl;
        req.host = h0;
        req.datastore = ds0;
        req.name = "copy";
        return req;
    }
};

TEST_F(TracingTest, AttachRegistersFullAxes)
{
    SpanTracer tracer;
    srv->attachTracer(&tracer);
    EXPECT_EQ(srv->tracer(), &tracer);
    EXPECT_EQ(tracer.opNames().size(), kNumOpTypes);
    EXPECT_EQ(tracer.phaseNames().size(), kNumTaskPhases);
    EXPECT_EQ(tracer.errorNames().size(), kNumTaskErrors);
    EXPECT_EQ(tracer.opNames()[static_cast<std::size_t>(
                  OpType::CloneFull)],
              opTypeName(OpType::CloneFull));
    EXPECT_EQ(tracer.phaseNames()[static_cast<std::size_t>(
                  TaskPhase::DataCopy)],
              taskPhaseName(TaskPhase::DataCopy));
}

TEST_F(TracingTest, PhaseSpansReconcileWithTaskPhaseTimes)
{
    SpanTracer tracer;
    srv->attachTracer(&tracer);
    Task t = runOp(cloneFullReq());
    ASSERT_TRUE(t.succeeded());

    // Each phase's span total must equal the task's own accounting
    // and the server's phase cell (single op).
    std::array<SimDuration, kNumTaskPhases> spans_us{};
    for (const SpanRecord &r : tracer.ring().snapshot()) {
        if (r.kind == SpanKind::Phase && r.scope == t.id().value)
            spans_us.at(r.name) += r.duration;
    }
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        auto phase = static_cast<TaskPhase>(p);
        EXPECT_EQ(spans_us[p], t.phaseTime(phase))
            << "phase " << taskPhaseName(phase);
        EXPECT_EQ(srv->phaseHistogram(OpType::CloneFull, phase).sum(),
                  static_cast<double>(t.phaseTime(phase)))
            << "phase " << taskPhaseName(phase);
    }
}

TEST_F(TracingTest, RingHoldsOpAndPhaseRecordsForTask)
{
    SpanTracer tracer;
    srv->attachTracer(&tracer);
    Task t = runOp(cloneFullReq());
    ASSERT_TRUE(t.succeeded());

    std::size_t ops = 0, subs = 0;
    std::array<std::size_t, kNumTaskPhases> phases{};
    for (const SpanRecord &r : tracer.ring().snapshot()) {
        if (r.scope != t.id().value)
            continue;
        switch (r.kind) {
          case SpanKind::Op:
            ++ops;
            EXPECT_EQ(r.start, t.submittedAt());
            EXPECT_EQ(r.duration, t.latency());
            break;
          case SpanKind::Phase:
            ++phases.at(r.name);
            break;
          case SpanKind::Sub:
            ++subs;
            break;
          default:
            break;
        }
    }
    EXPECT_EQ(ops, 1u);
    // A full clone enters all seven phases, each ended once.
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        EXPECT_EQ(phases[p], 1u)
            << "phase " << taskPhaseName(static_cast<TaskPhase>(p));
    }
    // agent-exec sub-span under the host-agent phase (agent-wait
    // only appears when the agent slot was contended).
    EXPECT_GE(subs, 1u);
}

TEST_F(TracingTest, FailedOpRecordsErrorAxis)
{
    SpanTracer tracer;
    srv->attachTracer(&tracer);

    OpRequest req;
    req.type = OpType::PowerOn;
    req.vm = VmId{}; // no such entity
    Task t = runOp(req);
    EXPECT_EQ(t.error(), TaskError::NoSuchEntity);

    bool found = false;
    for (const SpanRecord &r : tracer.ring().snapshot()) {
        if (r.kind == SpanKind::Op && r.scope == t.id().value) {
            found = true;
            EXPECT_EQ(r.name,
                      static_cast<std::uint16_t>(t.error()));
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(TracingTest, DetachStopsRecording)
{
    SpanTracer tracer;
    srv->attachTracer(&tracer);
    srv->attachTracer(nullptr);
    EXPECT_EQ(srv->tracer(), nullptr);
    Task t = runOp(cloneFullReq());
    ASSERT_TRUE(t.succeeded());
    EXPECT_EQ(tracer.ring().totalRecorded(), 0u);
}

TEST_F(TracingTest, TracingDoesNotPerturbTheSimulation)
{
    // Identical seed and op sequence with and without a tracer must
    // produce identical task latencies and event counts: recording
    // reads the clock but never schedules, allocates RNG draws, or
    // otherwise back-reacts on the simulation.
    Task plain = runOp(cloneFullReq());
    std::uint64_t plain_events = sim->eventsProcessed();
    SimTime plain_end = sim->now();

    build({});
    SpanTracer tracer;
    srv->attachTracer(&tracer);
    Task traced = runOp(cloneFullReq());
    EXPECT_GT(tracer.ring().totalRecorded(), 0u);

    EXPECT_EQ(traced.latency(), plain.latency());
    EXPECT_EQ(sim->eventsProcessed(), plain_events);
    EXPECT_EQ(sim->now(), plain_end);
}

} // namespace
} // namespace vcp

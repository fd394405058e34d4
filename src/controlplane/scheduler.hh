/**
 * @file
 * Task dispatch scheduler.
 *
 * The management server runs at most dispatch_width operations at a
 * time; everything else waits here.  Which waiter dispatches next is
 * the scheduling policy — FIFO (classic), fair-share across tenants
 * (self-service clouds), or strict priority.  The policy is one of
 * the design choices the paper says cloud provisioning rates force
 * operators to revisit, so it is a first-class ablation axis (F8).
 */

#ifndef VCP_CONTROLPLANE_SCHEDULER_HH
#define VCP_CONTROLPLANE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "controlplane/task.hh"
#include "infra/ids.hh"
#include "sim/inline_action.hh"
#include "sim/level_integral.hh"
#include "sim/simulator.hh"

namespace vcp {

class LatencyHistogram;
class SpanTracer;
class TelemetryRegistry;

/** Dispatch-ordering policies. */
enum class SchedPolicy
{
    Fifo,
    FairShare, ///< round-robin across tenants, FIFO within a tenant
    Priority,  ///< lowest OpRequest::priority first, FIFO within
};

const char *schedPolicyName(SchedPolicy p);

/** Bounded-width dispatcher with pluggable ordering. */
class TaskScheduler
{
  public:
    /**
     * @param sim event kernel (timestamps).
     * @param policy dispatch ordering.
     * @param dispatch_width max concurrently running tasks (>= 1).
     */
    TaskScheduler(Simulator &sim, SchedPolicy policy, int dispatch_width);

    TaskScheduler(const TaskScheduler &) = delete;
    TaskScheduler &operator=(const TaskScheduler &) = delete;

    /**
     * Queue a task; @p run fires when it is dispatched.  The caller
     * must call onTaskDone() exactly once when the task finishes,
     * and must keep @p task alive until dispatch (queue-phase time is
     * charged to it then).
     */
    void enqueue(Task *task, InlineAction run);

    /** Signal a dispatched task finished, freeing its slot. */
    void onTaskDone();

    std::size_t
    queueLength() const
    {
        return static_cast<std::size_t>(queued.level());
    }
    int inFlight() const { return static_cast<int>(running.level()); }

    /** @{ Waiting and running tasks, with their time integrals
     *  (telemetry gauges read these). */
    const LevelIntegral &queueLevel() const { return queued; }
    const LevelIntegral &runningLevel() const { return running; }
    /** @} */

    int dispatchWidth() const { return width; }
    SchedPolicy policy() const { return sched_policy; }

    /** Tasks dispatched so far. */
    std::uint64_t dispatched() const { return dispatch_count; }

    /** Attach a span tracer: dispatch then records each task's
     *  Queue-phase span.  Pass nullptr to detach. */
    void setTracer(SpanTracer *t) { tracer = t; }

    /** Attach streaming telemetry: registers the "sched.dispatch"
     *  counter (reads dispatched()), and each dispatch then feeds
     *  the "sched.wait_us" histogram.  Pass nullptr to detach the
     *  histogram. */
    void setTelemetry(TelemetryRegistry *reg);

    /**
     * Mean occupancy of the dispatch slots over the lifetime so far
     * (time-weighted running tasks / width).
     */
    double utilization() const;

  private:
    struct Waiting
    {
        Task *task = nullptr;
        InlineAction run;
        SimTime enqueued = 0;
        std::uint64_t seq = 0;
    };

    /** Dispatch while slots and waiters remain. */
    void drain();

    /** Remove and return the next waiter per policy. */
    Waiting pickNext();

    Simulator &sim;
    SchedPolicy sched_policy;
    int width;
    LevelIntegral running;
    LevelIntegral queued;
    SimTime created_at = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t dispatch_count = 0;

    /** FIFO / Priority backing store: key is (priority, seq) for
     *  Priority, (0, seq) for Fifo. */
    std::map<std::pair<int, std::uint64_t>, Waiting> ordered;

    /** FairShare backing store: per-tenant FIFO + RR cursor. */
    std::map<TenantId, std::deque<Waiting>> per_tenant;
    TenantId rr_cursor;

    SpanTracer *tracer = nullptr;
    LatencyHistogram *t_wait = nullptr;
};

} // namespace vcp

#endif // VCP_CONTROLPLANE_SCHEDULER_HH

#include "controlplane/scheduler.hh"

#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/tracer.hh"

namespace vcp {

const char *
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::Fifo:
        return "fifo";
      case SchedPolicy::FairShare:
        return "fair-share";
      case SchedPolicy::Priority:
        return "priority";
    }
    return "unknown";
}

TaskScheduler::TaskScheduler(Simulator &sim_, SchedPolicy policy,
                             int dispatch_width)
    : sim(sim_), sched_policy(policy), width(dispatch_width),
      running(sim_.now()), queued(sim_.now()), created_at(sim_.now())
{
    if (width < 1)
        fatal("TaskScheduler: dispatch width must be >= 1");
}

void
TaskScheduler::setTelemetry(TelemetryRegistry *reg)
{
    t_wait = nullptr;
    if (!reg)
        return;
    reg->addCounterProbe("sched.dispatch", [this] { return dispatch_count; });
    t_wait = reg->histogram("sched.wait_us");
}

double
TaskScheduler::utilization() const
{
    double elapsed = static_cast<double>(sim.now() - created_at);
    if (elapsed <= 0.0)
        return 0.0;
    double busy = static_cast<double>(running.integralAt(sim.now()));
    return busy / (elapsed * width);
}

void
TaskScheduler::enqueue(Task *task, InlineAction run)
{
    Waiting w;
    w.task = task;
    w.run = std::move(run);
    w.enqueued = sim.now();
    w.seq = next_seq++;

    if (sched_policy == SchedPolicy::FairShare) {
        per_tenant[task->request().tenant].push_back(std::move(w));
    } else {
        int prio = (sched_policy == SchedPolicy::Priority)
            ? task->request().priority
            : 0;
        ordered.emplace(std::make_pair(prio, w.seq), std::move(w));
    }
    queued.add(sim.now(), 1);
    drain();
}

TaskScheduler::Waiting
TaskScheduler::pickNext()
{
    if (sched_policy == SchedPolicy::FairShare) {
        // Advance the round-robin cursor to the next non-empty
        // tenant queue, wrapping around.
        auto it = per_tenant.upper_bound(rr_cursor);
        if (it == per_tenant.end())
            it = per_tenant.begin();
        // All queues non-empty invariant is maintained below, but be
        // defensive about empty ones anyway.
        std::size_t guard = per_tenant.size();
        while (guard-- > 0 && it->second.empty()) {
            it = std::next(it);
            if (it == per_tenant.end())
                it = per_tenant.begin();
        }
        if (it->second.empty())
            panic("TaskScheduler: fair-share pick on empty queues");
        rr_cursor = it->first;
        Waiting w = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty())
            per_tenant.erase(it);
        return w;
    }
    auto it = ordered.begin();
    Waiting w = std::move(it->second);
    ordered.erase(it);
    return w;
}

void
TaskScheduler::drain()
{
    while (inFlight() < width && queued.level() > 0) {
        Waiting w = pickNext();
        queued.add(sim.now(), -1);
        running.add(sim.now(), 1);
        ++dispatch_count;
        w.task->addPhaseTime(TaskPhase::Queue, sim.now() - w.enqueued);
        if (VCP_TELEM_ON(t_wait))
            t_wait->add(sim.now() - w.enqueued);
        if (VCP_TRACER_ON(tracer)) {
            tracer->recordPhase(
                static_cast<std::uint8_t>(w.task->type()),
                static_cast<std::uint8_t>(TaskPhase::Queue),
                w.task->id().value, w.enqueued,
                sim.now() - w.enqueued);
        }
        w.run();
    }
}

void
TaskScheduler::onTaskDone()
{
    if (running.level() <= 0)
        panic("TaskScheduler: onTaskDone with nothing running");
    running.add(sim.now(), -1);
    drain();
}

} // namespace vcp

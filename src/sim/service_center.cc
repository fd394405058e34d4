#include "sim/service_center.hh"

#include "sim/logging.hh"

namespace vcp {

ServiceCenter::ServiceCenter(Simulator &sim_, std::string name,
                             int servers)
    : sim(sim_), label(std::move(name)), num_servers(servers),
      queued(sim_.now()), busy(sim_.now()), created_at(sim_.now())
{
    if (num_servers < 1)
        panic("ServiceCenter %s: need at least one server",
              label.c_str());
}

SimDuration
ServiceCenter::totalBusyTime() const
{
    return busy.integralAt(sim.now());
}

double
ServiceCenter::utilization() const
{
    SimDuration elapsed = sim.now() - created_at;
    if (elapsed <= 0)
        return 0.0;
    return static_cast<double>(totalBusyTime()) /
           (static_cast<double>(elapsed) * num_servers);
}

void
ServiceCenter::occupy(SimDuration waited)
{
    wait_sum += waited;
    busy.add(sim.now(), 1);
}

void
ServiceCenter::vacate()
{
    if (busy.level() <= 0)
        panic("ServiceCenter %s: release with no busy server",
              label.c_str());
    busy.add(sim.now(), -1);
    ++done_count;
    drain();
}

void
ServiceCenter::drain()
{
    while (busyServers() < num_servers && !waiting.empty()) {
        Pending p = std::move(waiting.front());
        waiting.pop_front();
        queued.add(sim.now(), -1);
        occupy(sim.now() - p.enqueued);
        if (p.isJob())
            scheduleCompletion(p.service, std::move(p.start));
        else
            p.start();
    }
}

void
ServiceCenter::acquire(InlineAction granted)
{
    if (busyServers() < num_servers && waiting.empty()) {
        occupy(0);
        granted();
        return;
    }
    Pending p;
    p.enqueued = sim.now();
    p.start = std::move(granted);
    waiting.push_back(std::move(p));
    queued.add(sim.now(), 1);
}

void
ServiceCenter::release()
{
    vacate();
}

void
ServiceCenter::scheduleCompletion(SimDuration service_time,
                                  InlineAction done)
{
    std::uint32_t idx;
    if (!free_flights.empty()) {
        idx = free_flights.back();
        free_flights.pop_back();
        in_flight[idx] = std::move(done);
    } else {
        idx = static_cast<std::uint32_t>(in_flight.size());
        in_flight.push_back(std::move(done));
    }
    if (VCP_TRACE_ON(trace_ring))
        trace_ring->push({sim.now(), service_time, 0, trace_name,
                          SpanKind::Span, 0xff, {}});
    sim.schedule(service_time, [this, idx] { completeJob(idx); });
}

void
ServiceCenter::completeJob(std::uint32_t idx)
{
    InlineAction done = std::move(in_flight[idx]);
    free_flights.push_back(idx);
    // Free the server first so a same-tick waiter can start, then
    // run the completion.
    release();
    if (done)
        done();
}

void
ServiceCenter::submit(SimDuration service_time, InlineAction done)
{
    if (service_time < 0)
        panic("ServiceCenter %s: negative service time", label.c_str());
    if (busyServers() < num_servers && waiting.empty()) {
        occupy(0);
        scheduleCompletion(service_time, std::move(done));
        return;
    }
    Pending p;
    p.enqueued = sim.now();
    p.service = service_time;
    p.start = std::move(done);
    waiting.push_back(std::move(p));
    queued.add(sim.now(), 1);
}

} // namespace vcp

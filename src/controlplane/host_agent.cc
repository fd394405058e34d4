#include "controlplane/host_agent.hh"

namespace vcp {

HostAgent::HostAgent(Simulator &sim, HostId host,
                     const HostAgentConfig &cfg)
    : host_id(host),
      slots(sim, "hostd:" + std::to_string(host.value), cfg.op_slots)
{}

std::uint32_t
HostAgent::allocFlight(InlineAction done)
{
    std::uint32_t idx;
    if (!free_flights.empty()) {
        idx = free_flights.back();
        free_flights.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(flights.size());
        flights.emplace_back();
    }
    flights[idx] = std::move(done);
    return idx;
}

void
HostAgent::execute(SimDuration service_time, InlineAction done)
{
    std::uint32_t idx = allocFlight(std::move(done));
    slots.submit(service_time, [this, idx] { flightDone(idx); });
}

void
HostAgent::flightDone(std::uint32_t idx)
{
    if (!connected_) {
        parked.push_back(idx);
        return;
    }
    InlineAction done = std::move(flights[idx]);
    free_flights.push_back(idx);
    if (done)
        done();
}

bool
HostAgent::parkIfDisconnected(InlineAction resume)
{
    if (connected_)
        return false;
    parked.push_back(allocFlight(std::move(resume)));
    return true;
}

std::size_t
HostAgent::resumeParked()
{
    std::vector<std::uint32_t> q;
    q.swap(parked);
    std::size_t n = q.size();
    for (std::uint32_t idx : q) {
        InlineAction done = std::move(flights[idx]);
        free_flights.push_back(idx);
        if (done)
            done();
    }
    return n;
}

} // namespace vcp

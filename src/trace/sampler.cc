#include "trace/sampler.hh"

namespace vcp {

GaugeSampler::GaugeSampler(Simulator &sim_, SpanTracer *tracer_,
                           SimDuration)
    : sim(sim_), tracer(tracer_)
{}

void
GaugeSampler::addGauge(const std::string &name,
                       const LevelIntegral &level)
{
    gauges.push_back(
        {tracer ? tracer->intern(name) : std::uint16_t{0}, &level});
}

void
GaugeSampler::start()
{
    if (running || !tracer)
        return;
    running = true;
    for (const Gauge &g : gauges) {
        if (VCP_TRACER_ON(tracer))
            tracer->recordCounter(g.name, sim.now(), g.level->level());
        g.level->bindTrace(&tracer->ring(), g.name);
    }
}

void
GaugeSampler::stop()
{
    if (!running)
        return;
    running = false;
    for (const Gauge &g : gauges)
        g.level->bindTrace(nullptr, 0);
}

} // namespace vcp

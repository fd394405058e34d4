#include "trace/sampler.hh"

#include "sim/logging.hh"

namespace vcp {

GaugeSampler::GaugeSampler(Simulator &sim_, SpanTracer *tracer_,
                           SimDuration period_p)
    : sim(sim_), tracer(tracer_), period_(period_p)
{
    if (period_ <= 0)
        fatal("GaugeSampler: period must be > 0");
}

void
GaugeSampler::addGauge(const std::string &name,
                       std::function<std::int64_t()> probe)
{
    probes.push_back({tracer ? tracer->intern(name) : std::uint16_t{0},
                      std::move(probe)});
}

void
GaugeSampler::start()
{
    if (running)
        return;
    running = true;
    sim.schedule(period_, [this] { tick(); });
}

void
GaugeSampler::tick()
{
    if (!running)
        return;
    if (tracer && tracer->enabled()) {
        for (const Probe &p : probes) {
            tracer->recordCounter(p.name, sim.now(), p.read());
            ++sample_count;
        }
    }
    sim.schedule(period_, [this] { tick(); });
}

} // namespace vcp

#include "telemetry/telemetry.hh"

#include <algorithm>

namespace vcp {

TelemetryRegistry::TelemetryRegistry(SimDuration window)
    : window_(window)
{}

LatencyHistogram *
TelemetryRegistry::histogram(const std::string &name)
{
    for (auto &s : hists_)
        if (s.name == name)
            return s.hist.get();
    hists_.push_back({name, std::make_unique<LatencyHistogram>()});
    return hists_.back().hist.get();
}

TelemetryRegistry::GaugeSeries &
TelemetryRegistry::gaugeSeries(const std::string &name)
{
    for (auto &g : gauges_)
        if (g.name == name)
            return g;
    gauges_.push_back(
        {name, std::make_unique<DecayingGauge>(window_), false});
    return gauges_.back();
}

DecayingGauge *
TelemetryRegistry::gauge(const std::string &name)
{
    return gaugeSeries(name).gauge.get();
}

void
TelemetryRegistry::addGaugeProbe(const std::string &name,
                                 std::function<std::int64_t()> fn,
                                 bool shard_scoped)
{
    GaugeSeries &g = gaugeSeries(name);
    // The series' first probe decides its export section.
    if (std::none_of(gprobes_.begin(), gprobes_.end(),
                     [&](const GaugeProbe &q) { return q.name == name; }))
        g.shard_scoped = shard_scoped;
    GaugeProbe p;
    p.name = name;
    p.fn = std::move(fn);
    p.shard_scoped = shard_scoped;
    p.sink = g.gauge.get();
    gprobes_.push_back(std::move(p));
}

void
TelemetryRegistry::setUtilizations(
    std::function<std::vector<ResourceUtilization>()> fn)
{
    utils_ = std::move(fn);
}

std::vector<ResourceUtilization>
TelemetryRegistry::utilizations() const
{
    return utils_ ? utils_() : std::vector<ResourceUtilization>{};
}

void
TelemetryRegistry::addCounterProbe(const std::string &name,
                                   std::function<std::uint64_t()> fn,
                                   bool shard_scoped)
{
    cprobes_.push_back({name, std::move(fn), shard_scoped, 0});
}

void
TelemetryRegistry::sampleGauges(SimTime now)
{
    for (auto &p : gprobes_)
        p.sink->sample(now, static_cast<double>(p.fn()));
}

TelemetryRegistry::CounterReading
TelemetryRegistry::mergedCounter(const std::string &name) const
{
    for (const auto &p : cprobes_)
        if (p.name == name)
            return {p.fn()};
    return {};
}

LatencyHistogram
TelemetryRegistry::mergedHistogram(const std::string &name) const
{
    for (const auto &s : hists_)
        if (s.name == name)
            return *s.hist;
    return {};
}

const DecayingGauge *
TelemetryRegistry::findGauge(const std::string &name) const
{
    for (const auto &g : gauges_)
        if (g.name == name)
            return g.gauge.get();
    return nullptr;
}

std::size_t
TelemetryRegistry::numInstruments() const
{
    return hists_.size() + gauges_.size() + (utils_ ? 1 : 0)
        + cprobes_.size() + gprobes_.size();
}

std::size_t
TelemetryRegistry::footprintBytes() const
{
    return hists_.size() * sizeof(LatencyHistogram)
        + gauges_.size() * sizeof(DecayingGauge);
}

} // namespace vcp

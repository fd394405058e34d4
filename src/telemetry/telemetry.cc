#include "telemetry/telemetry.hh"

namespace vcp {

LatencyHistogram *
TelemetryRegistry::histogram(const std::string &name)
{
    for (auto &s : hists_)
        if (s.name == name)
            return s.hist.get();
    hists_.push_back({name, std::make_unique<LatencyHistogram>()});
    return hists_.back().hist.get();
}

void
TelemetryRegistry::addGaugeProbe(const std::string &name,
                                 std::function<LevelReading(SimTime)> fn,
                                 bool shard_scoped)
{
    gprobes_.push_back({name, std::move(fn), shard_scoped});
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

std::size_t
TelemetryRegistry::numInstruments() const
{
    return hists_.size() + (utils_ ? 1 : 0) + cprobes_.size()
        + gprobes_.size();
}

std::size_t
TelemetryRegistry::footprintBytes() const
{
    return hists_.size() * sizeof(LatencyHistogram);
}

} // namespace vcp

#include "telemetry/telemetry.hh"

#include <algorithm>
#include <type_traits>

namespace vcp {

TelemetryRegistry::TelemetryRegistry(SimDuration window)
    : window_(std::max<SimDuration>(window, WindowedCounter::kSlots))
{}

template <typename T>
T *
TelemetryRegistry::cellFor(Series<T> &s, int shard, SimDuration window)
{
    if (shard < 0)
        shard = 0;
    auto idx = static_cast<std::size_t>(shard);
    if (s.cells.size() <= idx)
        s.cells.resize(idx + 1);
    if (!s.cells[idx]) {
        if constexpr (std::is_same_v<T, WindowedCounter>)
            s.cells[idx] = std::make_unique<T>(window);
        else
            s.cells[idx] = std::make_unique<T>();
    }
    return s.cells[idx].get();
}

WindowedCounter *
TelemetryRegistry::counter(const std::string &name, int shard)
{
    for (auto &s : counters_)
        if (s.name == name)
            return cellFor(s, shard, window_);
    counters_.push_back({name, {}});
    return cellFor(counters_.back(), shard, window_);
}

LatencyHistogram *
TelemetryRegistry::histogram(const std::string &name, int shard)
{
    for (auto &s : hists_)
        if (s.name == name)
            return cellFor(s, shard, window_);
    hists_.push_back({name, {}});
    return cellFor(hists_.back(), shard, window_);
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

WindowedCounter
TelemetryRegistry::mergedCounter(const std::string &name) const
{
    WindowedCounter out(window_);
    for (const auto &s : counters_)
        if (s.name == name)
            return merged(s, out);
    return out;
}

LatencyHistogram
TelemetryRegistry::mergedHistogram(const std::string &name) const
{
    LatencyHistogram out;
    for (const auto &s : hists_)
        if (s.name == name)
            return merged(s, out);
    return out;
}

std::vector<std::string>
TelemetryRegistry::counterNames() const
{
    std::vector<std::string> out;
    out.reserve(counters_.size());
    for (const auto &s : counters_)
        out.push_back(s.name);
    return out;
}

std::vector<std::string>
TelemetryRegistry::histogramNames() const
{
    std::vector<std::string> out;
    out.reserve(hists_.size());
    for (const auto &s : hists_)
        out.push_back(s.name);
    return out;
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
    std::size_t n = gauges_.size() + (utils_ ? 1 : 0) + cprobes_.size()
        + gprobes_.size();
    for (const auto &s : counters_)
        for (const auto &c : s.cells)
            if (c)
                ++n;
    for (const auto &s : hists_)
        for (const auto &c : s.cells)
            if (c)
                ++n;
    return n;
}

std::size_t
TelemetryRegistry::footprintBytes() const
{
    std::size_t b = gauges_.size() * sizeof(DecayingGauge);
    for (const auto &s : counters_)
        for (const auto &c : s.cells)
            if (c)
                b += sizeof(WindowedCounter);
    for (const auto &s : hists_)
        for (const auto &c : s.cells)
            if (c)
                b += sizeof(LatencyHistogram);
    return b;
}

} // namespace vcp

#include "stats/registry.hh"

#include <algorithm>
#include <cstdio>

namespace vcp {

Counter &
StatRegistry::counter(const std::string &name)
{
    return counters[name];
}

Histogram &
StatRegistry::histogram(const std::string &name, double min_value,
                        double growth)
{
    auto it = histograms.find(name);
    if (it == histograms.end()) {
        it = histograms
                 .emplace(name,
                          std::make_unique<Histogram>(min_value, growth))
                 .first;
    }
    return *it->second;
}

LatencyHistogram &
StatRegistry::latency(const std::string &name)
{
    return latencies[name];
}

const LatencyHistogram &
StatRegistry::latencyOrEmpty(const std::string &name) const
{
    static const LatencyHistogram kEmpty;
    auto it = latencies.find(name);
    return it == latencies.end() ? kEmpty : it->second;
}

bool
StatRegistry::has(const std::string &name) const
{
    return counters.count(name) || histograms.count(name) ||
           latencies.count(name);
}

template <typename Map>
std::vector<std::string>
StatRegistry::sortedKeys(const Map &map)
{
    std::vector<std::string> out;
    out.reserve(map.size());
    for (const auto &kv : map)
        out.push_back(kv.first);
    std::sort(out.begin(), out.end());
    return out;
}

namespace {

/** Append the six "histogram" rows of @p h (either histogram type). */
template <typename H>
void
appendHistogramRows(std::string &out, const std::string &name, const H &h)
{
    const struct { const char *f; double v; } fields[] = {
        {"count", static_cast<double>(h.count())},
        {"mean", h.mean()},
        {"p50", h.p50()},
        {"p95", h.p95()},
        {"p99", h.p99()},
        {"max", h.count() ? h.max() : 0.0},
    };
    char line[256];
    for (const auto &f : fields) {
        std::snprintf(line, sizeof(line), "%s,histogram,%s,%.6g\n",
                      name.c_str(), f.f, f.v);
        out += line;
    }
}

} // namespace

std::string
StatRegistry::toCsv() const
{
    std::string out = "name,kind,field,value\n";
    char line[256];
    for (const auto &name : sortedKeys(counters)) {
        std::snprintf(line, sizeof(line), "%s,counter,value,%llu\n",
                      name.c_str(),
                      static_cast<unsigned long long>(
                          counters.at(name).value()));
        out += line;
    }
    // Both histogram types render alike, merged into one name order.
    std::vector<std::string> hists = sortedKeys(histograms);
    std::vector<std::string> cells = sortedKeys(latencies);
    std::size_t i = 0, j = 0;
    while (i < hists.size() || j < cells.size()) {
        if (j == cells.size() ||
            (i < hists.size() && hists[i] < cells[j])) {
            appendHistogramRows(out, hists[i], *histograms.at(hists[i]));
            ++i;
        } else {
            appendHistogramRows(out, cells[j], latencies.at(cells[j]));
            ++j;
        }
    }
    return out;
}

} // namespace vcp

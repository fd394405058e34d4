#include "analysis/bottleneck.hh"

#include <algorithm>

#include "trace/tracer.hh"

namespace vcp {

Table
utilizationTable(const std::vector<ResourceUtilization> &u)
{
    std::vector<ResourceUtilization> sorted = u;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const ResourceUtilization &a,
                        const ResourceUtilization &b) {
                         return a.utilization > b.utilization;
                     });
    Table t({"resource", "plane", "utilization"});
    for (const auto &r : sorted) {
        t.row()
            .cell(r.name)
            .cell(r.control_plane ? "control" : "data")
            .cell(r.utilization, 3);
    }
    return t;
}

std::vector<PhaseAttribution>
attributePhases(const SpanTracer &tracer)
{
    std::vector<PhaseAttribution> out;
    const auto &phases = tracer.phaseNames();
    double sum_us = 0.0;
    for (std::size_t p = 0; p < phases.size(); ++p)
        sum_us += tracer.phaseTotalTime(p);
    for (std::size_t p = 0; p < phases.size(); ++p) {
        double us = tracer.phaseTotalTime(p);
        out.push_back({phases[p], us / 1000.0,
                       sum_us > 0.0 ? us / sum_us : 0.0});
    }
    std::sort(out.begin(), out.end(),
              [](const PhaseAttribution &a, const PhaseAttribution &b) {
                  if (a.total_ms != b.total_ms)
                      return a.total_ms > b.total_ms;
                  return a.phase < b.phase;
              });
    return out;
}

Table
phaseAttributionTable(const std::vector<PhaseAttribution> &a)
{
    Table t({"phase", "total_ms", "fraction"});
    for (const PhaseAttribution &p : a)
        t.row().cell(p.phase).cell(p.total_ms, 1).cell(p.fraction, 3);
    return t;
}

std::string
dominantPhase(const SpanTracer &tracer)
{
    std::vector<PhaseAttribution> a = attributePhases(tracer);
    if (a.empty() || a.front().total_ms <= 0.0)
        return "none";
    return a.front().phase;
}

} // namespace vcp

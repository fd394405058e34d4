#include "analysis/bottleneck.hh"

#include <algorithm>
#include <array>

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
attributePhases(const ManagementServer &srv)
{
    std::array<double, kNumTaskPhases> phase_us{};
    double sum_us = 0.0;
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        for (std::size_t o = 0; o < kNumOpTypes; ++o) {
            phase_us[p] += srv.phaseHistogram(static_cast<OpType>(o),
                                              static_cast<TaskPhase>(p))
                               .sum();
        }
        sum_us += phase_us[p];
    }
    std::vector<PhaseAttribution> out;
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        out.push_back({taskPhaseName(static_cast<TaskPhase>(p)),
                       phase_us[p] / 1000.0,
                       sum_us > 0.0 ? phase_us[p] / sum_us : 0.0});
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
dominantPhase(const ManagementServer &srv)
{
    std::vector<PhaseAttribution> a = attributePhases(srv);
    if (a.empty() || a.front().total_ms <= 0.0)
        return "none";
    return a.front().phase;
}

} // namespace vcp

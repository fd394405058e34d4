#include "workload/trace.hh"

#include <cstdio>

namespace vcp {

std::string
ActionTrace::toCsv() const
{
    std::string out = "time_us,action,tenant,template\n";
    char line[128];
    for (const auto &r : records) {
        std::snprintf(line, sizeof(line), "%lld,%s,%d,%d\n",
                      static_cast<long long>(r.time),
                      cloudActionName(r.action), r.tenant_index,
                      r.template_index);
        out += line;
    }
    return out;
}

void
OpTrace::add(const Task &t)
{
    OpRecord r;
    r.submitted = t.submittedAt();
    r.type = t.type();
    r.latency = t.latency();
    r.success = t.succeeded();
    r.error = t.error();
    for (std::size_t p = 0; p < kNumTaskPhases; ++p)
        r.phases[p] = t.phaseTime(static_cast<TaskPhase>(p));
    records.push_back(r);
}

std::string
OpTrace::toCsv() const
{
    std::string out = "submitted_us,op,latency_us,success,error";
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        out += ",";
        out += taskPhaseName(static_cast<TaskPhase>(p));
        out += "_us";
    }
    out += "\n";
    char line[384];
    for (const auto &r : records) {
        int n = std::snprintf(line, sizeof(line), "%lld,%s,%lld,%d,%s",
                              static_cast<long long>(r.submitted),
                              opTypeName(r.type),
                              static_cast<long long>(r.latency),
                              r.success ? 1 : 0,
                              taskErrorName(r.error));
        out.append(line, static_cast<std::size_t>(n));
        for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
            n = std::snprintf(line, sizeof(line), ",%lld",
                              static_cast<long long>(r.phases[p]));
            out.append(line, static_cast<std::size_t>(n));
        }
        out += "\n";
    }
    return out;
}

} // namespace vcp

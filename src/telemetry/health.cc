#include "telemetry/health.hh"

#include <algorithm>
#include <cinttypes>

#include "telemetry/json_writer.hh"

namespace vcp {

using telemetry::appendEscaped;
using telemetry::appendInt;
using telemetry::appendNum;

ResourceUtilization
bottleneckOf(const std::vector<ResourceUtilization> &u)
{
    const ResourceUtilization *best = nullptr;
    for (const auto &r : u) {
        if (!best || r.utilization > best->utilization)
            best = &r;
    }
    if (!best || best->utilization <= 0.0)
        return {"none", false, 0.0};
    return *best;
}

HealthReport
buildHealthReport(TelemetryRegistry &reg, SimTime now,
                  std::vector<std::string> recent_windows,
                  std::vector<std::pair<std::string, std::uint64_t>>
                      window_wins)
{
    HealthReport hr;
    hr.now_us = now;
    hr.subsystems = reg.utilizations();
    ResourceUtilization top = bottleneckOf(hr.subsystems);
    hr.dominant = top.name;
    hr.control_plane_limited = top.control_plane;
    std::stable_sort(hr.subsystems.begin(), hr.subsystems.end(),
                     [](const auto &a, const auto &b) {
                         return a.utilization > b.utilization;
                     });
    hr.recent_windows = std::move(recent_windows);
    hr.window_wins = std::move(window_wins);
    std::sort(hr.window_wins.begin(), hr.window_wins.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    return hr;
}

void
topKCongested(std::vector<CongestedEntity> &entities, std::size_t k)
{
    std::sort(entities.begin(), entities.end(),
              [](const CongestedEntity &a, const CongestedEntity &b) {
                  if (a.utilization != b.utilization)
                      return a.utilization > b.utilization;
                  return a.name < b.name;
              });
    while (!entities.empty()
           && entities.back().utilization <= 0.0)
        entities.pop_back();
    if (entities.size() > k)
        entities.resize(k);
}

std::string
healthText(const HealthReport &hr)
{
    std::string out = "run health report\n";

    Table subs({"subsystem", "plane", "utilization", "windows won"});
    for (const ResourceUtilization &r : hr.subsystems) {
        std::uint64_t wins = 0;
        for (const auto &[wname, wcount] : hr.window_wins)
            if (wname == r.name)
                wins = wcount;
        subs.row()
            .cell(r.name)
            .cell(r.control_plane ? "control" : "data")
            .cell(r.utilization)
            .cell(wins);
    }
    out += subs.toText();

    out += "dominant bottleneck: " + hr.dominant
        + (hr.control_plane_limited ? " (control plane)"
                                    : " (data plane)")
        + "\n";

    if (!hr.recent_windows.empty()) {
        out += "recent windows:";
        for (const auto &w : hr.recent_windows)
            out += " " + w;
        out += "\n";
    }
    if (!hr.top_hosts.empty()) {
        Table t({"congested host agents", "utilization"});
        for (const auto &e : hr.top_hosts)
            t.row().cell(e.name).cell(e.utilization);
        out += t.toText();
    }
    if (!hr.top_links.empty()) {
        Table t({"congested fabric links", "utilization"});
        for (const auto &e : hr.top_links)
            t.row().cell(e.name).cell(e.utilization);
        out += t.toText();
    }
    return out;
}

std::string
healthJson(const HealthReport &hr)
{
    std::string j = "{\"type\":\"health\",\"ts_us\":";
    appendInt(j, hr.now_us);

    // "name":value members of one object, comma-separated.
    bool first = true;
    auto member = [&](std::string_view name) {
        if (!first)
            j += ',';
        first = false;
        j += '"';
        appendEscaped(j, name);
        j += "\":";
    };

    j += ",\"subsystems\":{";
    for (const ResourceUtilization &r : hr.subsystems) {
        member(r.name);
        appendNum(j, r.utilization);
    }
    j += "}";

    j += ",\"dominant\":\"";
    appendEscaped(j, hr.dominant);
    j += "\",\"control_plane_limited\":";
    j += hr.control_plane_limited ? "true" : "false";

    j += ",\"window_wins\":{";
    first = true;
    for (const auto &[name, wins] : hr.window_wins) {
        member(name);
        appendInt(j, wins);
    }
    j += "}";

    j += ",\"recent_windows\":[";
    first = true;
    for (const auto &w : hr.recent_windows) {
        if (!first)
            j += ',';
        first = false;
        j += '"';
        appendEscaped(j, w);
        j += '"';
    }
    j += "]";

    auto entities = [&](const char *key,
                        const std::vector<CongestedEntity> &es) {
        j += ",\"";
        j += key;
        j += "\":[";
        bool f = true;
        for (const auto &e : es) {
            if (!f)
                j += ',';
            f = false;
            j += "{\"name\":\"";
            appendEscaped(j, e.name);
            j += "\",\"util\":";
            appendNum(j, e.utilization);
            j += '}';
        }
        j += "]";
    };
    entities("top_hosts", hr.top_hosts);
    entities("top_links", hr.top_links);

    j += "}";
    return j;
}

} // namespace vcp

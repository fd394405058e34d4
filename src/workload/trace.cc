#include "workload/trace.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "sim/logging.hh"
#include "sim/parse_util.hh"

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

namespace {

/** Split one CSV line at commas (no quoting in our traces). */
std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> fields;
    std::string cur;
    for (char c : line) {
        if (c == ',') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    fields.push_back(cur);
    return fields;
}

/** Die naming the bad field and its line. */
[[noreturn]] void
badField(const char *what, const std::string &field,
         const std::string &line)
{
    fatal("trace CSV: bad %s field '%s' in line '%s'", what,
          field.c_str(), line.c_str());
}

/** Parse one CSV integer field or die naming the line. */
long long
csvInt(const std::string &field, const char *what,
       const std::string &line)
{
    long long v = 0;
    if (!parseStrictInt(field.c_str(), v))
        badField(what, field, line);
    return v;
}

} // namespace

ActionTrace
ActionTrace::fromCsv(const std::string &csv)
{
    ActionTrace trace;
    std::istringstream in(csv);
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (first) {
            first = false;
            continue; // header
        }
        auto f = splitCsvLine(line);
        if (f.size() != 4)
            fatal("ActionTrace::fromCsv: malformed line '%s'",
                  line.c_str());
        ActionRecord r;
        r.time = csvInt(f[0], "time", line);
        if (r.time < 0)
            fatal("ActionTrace::fromCsv: negative time in line '%s'",
                  line.c_str());
        r.action = cloudActionFromName(f[1]);
        if (r.action == CloudAction::NumActions)
            fatal("ActionTrace::fromCsv: unknown action '%s'",
                  f[1].c_str());
        r.tenant_index =
            static_cast<int>(csvInt(f[2], "tenant", line));
        r.template_index =
            static_cast<int>(csvInt(f[3], "template", line));
        if (r.tenant_index < 0 || r.template_index < 0)
            fatal("ActionTrace::fromCsv: negative index in line '%s'",
                  line.c_str());
        trace.add(r);
    }
    return trace;
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

OpTrace
OpTrace::fromCsv(const std::string &csv)
{
    OpTrace trace;
    std::istringstream in(csv);
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (first) {
            first = false;
            continue;
        }
        auto f = splitCsvLine(line);
        if (f.size() != 5 + kNumTaskPhases)
            fatal("OpTrace::fromCsv: malformed line '%s'",
                  line.c_str());
        OpRecord r;
        r.submitted = csvInt(f[0], "submitted", line);
        if (r.submitted < 0)
            fatal("OpTrace::fromCsv: negative time in line '%s'",
                  line.c_str());
        r.type = opTypeFromName(f[1]);
        if (r.type == OpType::NumOpTypes)
            fatal("OpTrace::fromCsv: unknown op '%s'", f[1].c_str());
        r.latency = csvInt(f[2], "latency", line);
        if (f[3] != "0" && f[3] != "1")
            badField("success", f[3], line);
        r.success = f[3] == "1";
        std::size_t e = 0;
        while (e < kNumTaskErrors &&
               f[4] != taskErrorName(static_cast<TaskError>(e)))
            ++e;
        if (e == kNumTaskErrors)
            badField("error", f[4], line);
        r.error = static_cast<TaskError>(e);
        for (std::size_t p = 0; p < kNumTaskPhases; ++p)
            r.phases[p] = csvInt(f[5 + p], "phase", line);
        trace.records.push_back(r);
    }
    return trace;
}

} // namespace vcp

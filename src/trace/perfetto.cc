#include "trace/perfetto.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <queue>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "telemetry/json_writer.hh"

namespace vcp {

using telemetry::appendEscaped;
using telemetry::appendInt;

namespace {

/** A file export is written in chunks of about this many bytes. */
constexpr std::size_t kChunk = std::size_t{1} << 20;

/** Rough size of one rendered event, to size the in-memory export. */
constexpr std::size_t kEventBytes = 128;

/**
 * The trace_event document: an envelope around comma-separated
 * events.  With a file, each full chunk is written out as rendering
 * goes, so the document is never held whole; without one, it
 * accumulates in @c buf.
 */
class TraceJson
{
  public:
    explicit TraceJson(std::ofstream *file) : file(file)
    {
        buf = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    }

    /** Start the next event; returns the buffer to append it to. */
    std::string &
    event()
    {
        if (file && buf.size() >= kChunk)
            flush();
        if (!first)
            buf += ",\n";
        first = false;
        return buf;
    }

    /** Close the envelope; with a file, write what is left. */
    void
    finish()
    {
        buf += "\n]}\n";
        if (file)
            flush();
    }

    std::string buf;

  private:
    /** Write the buffer, unless an earlier chunk already failed. */
    void
    flush()
    {
        if (*file)
            file->write(buf.data(),
                        static_cast<std::streamsize>(buf.size()));
        buf.clear();
    }

    std::ofstream *file;
    bool first = true;
};

/** A name table, escaped once per export. */
class Names
{
  public:
    explicit Names(const std::vector<std::string> &names)
        : escaped(names.size())
    {
        for (std::size_t i = 0; i < names.size(); ++i)
            appendEscaped(escaped[i], names[i]);
    }

    /** Escaped name @p i, or @p fallback for an unknown id. */
    std::string_view
    at(std::size_t i, std::string_view fallback) const
    {
        return i < escaped.size() ? std::string_view(escaped[i])
                                  : fallback;
    }

  private:
    std::vector<std::string> escaped;
};

/** One op's interval and whole-op record, regrouped from the ring. */
struct TaskGroup
{
    SimTime start = 0;
    SimTime end = 0;
    const SpanRecord *op = nullptr;
    /** Its phase and sub-phase records: slices[first, first+count). */
    std::uint32_t first = 0;
    std::uint32_t count = 0;
};

/** The ring's records regrouped for export, pointing into the ring. */
struct Grouped
{
    /** Op-scoped records by task id, in first-seen order. */
    std::vector<TaskGroup> tasks;
    /** Every task's slices, task by task, ring order within a task. */
    std::vector<const SpanRecord *> slices;
    std::map<std::uint16_t, std::vector<const SpanRecord *>> named_spans;
    std::vector<const SpanRecord *> instants;
    /** Counter records, only the last of a track at one instant. */
    std::vector<const SpanRecord *> counters;
};

Grouped
groupRecords(const TraceRing &ring)
{
    Grouped g;
    std::unordered_map<std::int64_t, std::uint32_t> task_of;
    // Each counter track's latest entry in g.counters.
    std::unordered_map<std::uint16_t, std::size_t> last_counter;
    // (task, record) per slice in ring order, bucketed by task below.
    std::vector<std::pair<std::uint32_t, const SpanRecord *>> by_task;
    ring.forEach([&](const SpanRecord &r) {
        switch (r.kind) {
          case SpanKind::Op:
          case SpanKind::Phase:
          case SpanKind::Sub: {
            auto [it, fresh] = task_of.try_emplace(
                r.scope, static_cast<std::uint32_t>(g.tasks.size()));
            if (fresh)
                g.tasks.push_back({r.start, 0, nullptr, 0, 0});
            TaskGroup &t = g.tasks[it->second];
            t.start = std::min(t.start, r.start);
            t.end = std::max(t.end, r.start + r.duration);
            if (r.kind == SpanKind::Op) {
                t.op = &r;
            } else {
                ++t.count;
                by_task.emplace_back(it->second, &r);
            }
            break;
          }
          case SpanKind::Span:
            g.named_spans[r.name].push_back(&r);
            break;
          case SpanKind::Instant:
            g.instants.push_back(&r);
            break;
          case SpanKind::Counter: {
            // A level that changes twice at one instant keeps its last
            // value; the earlier record would draw a zero-width step.
            auto [it, fresh] =
                last_counter.try_emplace(r.name, g.counters.size());
            if (!fresh && g.counters[it->second]->start == r.start) {
                g.counters[it->second] = &r;
            } else {
                it->second = g.counters.size();
                g.counters.push_back(&r);
            }
            break;
          }
        }
    });

    // Counting sort of the slices by task (stable: ring order stays).
    std::uint32_t next = 0;
    for (TaskGroup &t : g.tasks) {
        t.first = next;
        next += t.count;
        t.count = 0;
    }
    g.slices.resize(by_task.size());
    for (auto [task, r] : by_task) {
        TaskGroup &t = g.tasks[task];
        g.slices[t.first + t.count++] = r;
    }
    return g;
}

/**
 * Append a complete ("X") event for @p r up to its first argument;
 * the caller appends any further arguments and the closing "}}".
 */
void
completeEvent(std::string &out, std::string_view name,
              std::string_view cat, int tid, const SpanRecord &r,
              std::string_view arg, std::int64_t value)
{
    out += "{\"name\":\"";
    out += name;
    out += "\",\"cat\":\"";
    out += cat;
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    appendInt(out, tid);
    out += ",\"ts\":";
    appendInt(out, r.start);
    out += ",\"dur\":";
    appendInt(out, r.duration);
    out += ",\"args\":{\"";
    out += arg;
    out += "\":";
    appendInt(out, value);
}

/** Append a lane label; @p lane (when >= 0) follows the name. */
void
threadName(std::string &out, int tid, std::string_view name,
           int lane = -1)
{
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    appendInt(out, tid);
    out += ",\"args\":{\"name\":\"";
    out += name;
    if (lane >= 0) {
        out += ' ';
        appendInt(out, lane);
    }
    out += "\"}}";
}

/**
 * Greedy lane assignment: intervals sorted by start; a lane is
 * reusable when its last interval ended at or before the new start.
 * Returns per-interval lane indices (0-based) and the lane count.
 */
std::size_t
assignLanes(const std::vector<std::pair<SimTime, SimTime>> &intervals,
            std::vector<int> &lane_of)
{
    lane_of.assign(intervals.size(), 0);
    std::vector<std::size_t> order(intervals.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return intervals[a].first < intervals[b].first;
              });
    // Min-heap of (lane_end, lane_id).
    std::priority_queue<std::pair<SimTime, int>,
                        std::vector<std::pair<SimTime, int>>,
                        std::greater<>>
        lanes;
    int next_lane = 0;
    for (std::size_t idx : order) {
        auto [start, end] = intervals[idx];
        if (!lanes.empty() && lanes.top().first <= start) {
            auto [_, lane] = lanes.top();
            lanes.pop();
            lane_of[idx] = lane;
            lanes.emplace(end, lane);
        } else {
            lane_of[idx] = next_lane;
            lanes.emplace(end, next_lane);
            ++next_lane;
        }
    }
    return static_cast<std::size_t>(next_lane);
}

/** Render every event of @p tracer's ring into @p json. */
void
renderEvents(const SpanTracer &tracer, TraceJson &json)
{
    const Names op_names(tracer.opNames());
    const Names phase_names(tracer.phaseNames());
    const Names error_names(tracer.errorNames());
    const Names interned(tracer.internedNames());
    const Grouped g = groupRecords(tracer.ring());

    json.event() += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"args\":{\"name\":\"vcpsim\"}}";

    // Op lanes: tids 1..N.
    std::vector<std::pair<SimTime, SimTime>> intervals;
    intervals.reserve(g.tasks.size());
    for (const TaskGroup &t : g.tasks)
        intervals.emplace_back(t.start, t.end);
    std::vector<int> lane_of;
    std::size_t op_lanes = assignLanes(intervals, lane_of);
    for (std::size_t l = 0; l < op_lanes; ++l)
        threadName(json.event(), static_cast<int>(l) + 1, "ops",
                   static_cast<int>(l));
    for (std::size_t i = 0; i < g.tasks.size(); ++i) {
        const TaskGroup &t = g.tasks[i];
        int tid = lane_of[i] + 1;
        if (t.op) {
            std::string &out = json.event();
            completeEvent(out, op_names.at(t.op->op, "op"), "op", tid,
                          *t.op, "task", t.op->scope);
            out += ",\"error\":\"";
            out += error_names.at(t.op->name, "?");
            out += "\"}}";
        }
        for (std::uint32_t k = 0; k < t.count; ++k) {
            const SpanRecord &s = *g.slices[t.first + k];
            std::string &out = json.event();
            if (s.kind == SpanKind::Phase)
                completeEvent(out, phase_names.at(s.name, "phase"),
                              "phase", tid, s, "task", s.scope);
            else
                completeEvent(out, interned.at(s.name, "detail"),
                              "detail", tid, s, "task", s.scope);
            out += "}}";
        }
    }

    // Named span groups: per-name lane blocks after the op lanes.
    int next_tid = static_cast<int>(op_lanes) + 1;
    for (const auto &[name_id, named] : g.named_spans) {
        intervals.clear();
        for (const SpanRecord *s : named)
            intervals.emplace_back(s->start, s->start + s->duration);
        std::size_t lanes = assignLanes(intervals, lane_of);
        std::string_view base = interned.at(name_id, "span");
        for (std::size_t l = 0; l < lanes; ++l)
            threadName(json.event(), next_tid + static_cast<int>(l),
                       base, lanes > 1 ? static_cast<int>(l) : -1);
        for (std::size_t i = 0; i < named.size(); ++i) {
            std::string &out = json.event();
            completeEvent(out, base, "span", next_tid + lane_of[i],
                          *named[i], "scope", named[i]->scope);
            out += "}}";
        }
        next_tid += static_cast<int>(lanes);
    }

    // Instants share one marker track.
    if (!g.instants.empty()) {
        threadName(json.event(), next_tid, "markers");
        for (const SpanRecord *r : g.instants) {
            std::string &out = json.event();
            out += "{\"name\":\"";
            out += interned.at(r->name, "marker");
            out += "\",\"cat\":\"marker\",\"ph\":\"i\",\"s\":\"t\","
                   "\"pid\":1,\"tid\":";
            appendInt(out, next_tid);
            out += ",\"ts\":";
            appendInt(out, r->start);
            out += ",\"args\":{\"scope\":";
            appendInt(out, r->scope);
            out += "}}";
        }
        ++next_tid;
    }

    // Counter samples become "C" tracks keyed by name.
    for (const SpanRecord *r : g.counters) {
        std::string &out = json.event();
        out += "{\"name\":\"";
        out += interned.at(r->name, "counter");
        out += "\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"ts\":";
        appendInt(out, r->start);
        out += ",\"args\":{\"value\":";
        appendInt(out, r->duration);
        out += "}}";
    }
}

} // namespace

std::string
exportPerfettoJson(const SpanTracer &tracer)
{
    TraceJson json(nullptr);
    json.buf.reserve((tracer.ring().size() + 16) * kEventBytes);
    renderEvents(tracer, json);
    json.finish();
    return std::move(json.buf);
}

bool
writePerfettoJson(const SpanTracer &tracer, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        warnTagged("trace", "cannot write %s", path.c_str());
        return false;
    }
    TraceJson json(&out);
    json.buf.reserve(kChunk + kChunk / 4);
    renderEvents(tracer, json);
    json.finish();
    out.close();
    if (!out) {
        warnTagged("trace", "writing %s failed", path.c_str());
        return false;
    }
    if (tracer.ring().dropped() > 0) {
        warnTagged("trace",
                   "ring wrapped; %llu oldest records dropped "
                   "(raise capacity to keep the full run)",
                   static_cast<unsigned long long>(
                       tracer.ring().dropped()));
    }
    return true;
}

} // namespace vcp

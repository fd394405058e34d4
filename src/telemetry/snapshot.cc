#include "telemetry/snapshot.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "telemetry/json_writer.hh"

namespace vcp {

using telemetry::appendEscaped;
using telemetry::appendInt;
using telemetry::appendNum;
using telemetry::appendPromName;

SnapshotEmitter::SnapshotEmitter(Simulator &sim_,
                                 TelemetryRegistry &reg_,
                                 SimDuration interval_p)
    : sim(sim_), reg(reg_), interval_(interval_p)
{
    if (interval_ <= 0)
        fatal("SnapshotEmitter: interval must be > 0");
}

bool
SnapshotEmitter::openNdjson(const std::string &path)
{
    owned_out = std::make_unique<std::ofstream>(path,
                                                std::ios::trunc);
    if (!owned_out->is_open()) {
        warnTagged("telemetry", "cannot open metrics file %s",
                   path.c_str());
        owned_out.reset();
        return false;
    }
    out = owned_out.get();
    prom_path = path + ".prom";
    return true;
}

void
SnapshotEmitter::writeTo(std::ostream *os)
{
    out = os;
}

void
SnapshotEmitter::start()
{
    if (running)
        return;
    running = true;
    last_emit = sim.now();
    sim.schedule(interval_, [this] { tick(); });
}

void
SnapshotEmitter::tick()
{
    if (!running)
        return;
    emitNow();
    sim.schedule(interval_, [this] { tick(); });
}

void
SnapshotEmitter::emitNow()
{
    reg.sampleGauges(sim.now());
    std::vector<ResourceUtilization> utils = reg.utilizations();
    noteDominant(utils);
    renderSnapshot(utils);
    emitLine();
    writeProm(utils);
    last_emit = sim.now();
    ++seq;
}

bool
SnapshotEmitter::finish(const HealthReport &hr)
{
    // A final partial window: emit unless the last snapshot already
    // covered this instant (run length an exact multiple of the
    // interval, or a run shorter than one window that never ticked —
    // then this is the only snapshot).
    if (seq == 0 || sim.now() > last_emit)
        emitNow();
    line = healthJson(hr);
    emitLine();
    bool ok = true;
    if (out && out->fail()) {
        warnTagged("telemetry", "cannot write the metrics stream");
        ok = false;
    }
    if (!writeProm(reg.utilizations())) {
        warnTagged("telemetry", "cannot write %s", prom_path.c_str());
        ok = false;
    }
    return ok;
}

void
SnapshotEmitter::emitLine()
{
    if (!out)
        return;
    line += '\n';
    out->write(line.data(), static_cast<std::streamsize>(line.size()));
    out->flush();
}

void
SnapshotEmitter::noteDominant(const std::vector<ResourceUtilization> &u)
{
    if (u.empty())
        return;
    std::string best = bottleneckOf(u).name;
    bool found = false;
    for (auto &[name, count] : wins) {
        if (name == best) {
            ++count;
            found = true;
            break;
        }
    }
    if (!found)
        wins.emplace_back(best, 1);
    recent[recent_n % kRecentWindows] = best;
    ++recent_n;
}

std::vector<std::string>
SnapshotEmitter::recentDominants() const
{
    std::vector<std::string> out_v;
    std::size_t n = std::min(recent_n, kRecentWindows);
    out_v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out_v.push_back(recent[(recent_n - n + i) % kRecentWindows]);
    return out_v;
}

const std::string &
SnapshotEmitter::KeyCache::at(std::size_t i, std::string_view name)
{
    if (i == keys.size()) {
        std::string key = "\"";
        appendEscaped(key, name);
        key += "\":";
        keys.push_back(std::move(key));
    }
    return keys[i];
}

void
SnapshotEmitter::renderSnapshot(const std::vector<ResourceUtilization> &u)
{
    SimTime now = sim.now();
    double dt_s = toSeconds(now - last_emit);

    std::string &j = line;
    j = "{\"type\":\"snapshot\",\"seq\":";
    appendInt(j, seq);
    j += ",\"ts_us\":";
    appendInt(j, now);
    j += ",\"window_us\":";
    appendInt(j, now - last_emit);

    // Members of one object: a comma, the member's "name": key, then
    // "field":value pairs appended with num()/count().  Registry
    // series keys come from the caches, escaped once per series.
    bool first = true;
    auto member = [&](std::string_view key) {
        if (!first)
            j += ',';
        first = false;
        j += key;
    };
    auto num = [&](const char *field, double v) {
        j += field;
        appendNum(j, v);
    };
    auto count = [&](const char *field, std::uint64_t v) {
        j += field;
        appendInt(j, v);
    };

    // A counter probe's reading, and its change since the previous
    // snapshot: the window.
    auto readProbe = [](TelemetryRegistry::CounterProbe &p) {
        std::uint64_t cur = p.fn();
        std::uint64_t delta = cur >= p.prev ? cur - p.prev : 0;
        p.prev = cur;
        return std::pair(cur, delta);
    };

    j += ",\"counters\":{";
    std::size_t i = 0;
    for (auto &p : reg.counterProbes()) {
        const std::string &key = probe_keys.at(i++, p.name);
        if (p.shard_scoped)
            continue;
        auto [cur, delta] = readProbe(p);
        member(key);
        count("{\"total\":", cur);
        count(",\"window\":", delta);
        num(",\"rate_per_s\":",
            dt_s > 0 ? static_cast<double>(delta) / dt_s : 0.0);
        j += '}';
    }
    j += '}';

    // Gauges: decaying levels, probe-fed and sampler-fed alike.
    j += ",\"gauges\":{";
    first = true;
    i = 0;
    reg.forEachGauge([&](const std::string &name, const DecayingGauge &g,
                         bool shard_scoped) {
        const std::string &key = gauge_keys.at(i++, name);
        if (shard_scoped)
            return;
        member(key);
        num("{\"last\":", g.last());
        num(",\"ewma\":", g.ewma());
        num(",\"min\":", g.min());
        num(",\"max\":", g.max());
        j += '}';
    });
    j += '}';

    // Utilizations: instantaneous whole-run busy fractions.  The list
    // is rebuilt each snapshot, so its names are escaped here.
    j += ",\"utils\":{";
    first = true;
    for (const ResourceUtilization &r : u) {
        member("\"");
        appendEscaped(j, r.name);
        j += "\":";
        appendNum(j, r.utilization);
    }
    j += '}';

    // Histograms: HDR-style quantiles.
    j += ",\"hists\":{";
    first = true;
    i = 0;
    reg.forEachHistogram(
        [&](const std::string &name, const LatencyHistogram &h) {
            member(hist_keys.at(i++, name));
            count("{\"count\":", h.count());
            num(",\"sum_us\":", h.sum());
            num(",\"min_us\":", h.min());
            num(",\"p50_us\":", h.p50());
            num(",\"p95_us\":", h.p95());
            num(",\"p99_us\":", h.p99());
            num(",\"max_us\":", h.max());
            j += '}';
        });
    j += '}';

    // Shard-scoped series LAST — everything before this comma is
    // identical across --parallel-shards counts (Merge mode).
    j += ",\"shards\":{";
    first = true;
    i = 0;
    for (auto &p : reg.counterProbes()) {
        const std::string &key = probe_keys.at(i++, p.name);
        if (!p.shard_scoped)
            continue;
        auto [cur, delta] = readProbe(p);
        member(key);
        count("{\"total\":", cur);
        count(",\"window\":", delta);
        j += '}';
    }
    i = 0;
    reg.forEachGauge([&](const std::string &name, const DecayingGauge &g,
                         bool shard_scoped) {
        const std::string &key = gauge_keys.at(i++, name);
        if (!shard_scoped)
            return;
        member(key);
        num("{\"last\":", g.last());
        num(",\"max\":", g.max());
        j += '}';
    });
    j += "}}";
}

bool
SnapshotEmitter::writeProm(const std::vector<ResourceUtilization> &u)
{
    if (prom_path.empty())
        return true;

    std::string &t = prom;
    t.clear();
    // "vcp_<name><suffix>", the name reduced to Prometheus characters.
    auto metric = [&](const char *prefix, std::string_view name,
                      const char *suffix) {
        t += prefix;
        appendPromName(t, name);
        t += suffix;
    };
    // A "# TYPE" line, then the sample's name; the value follows.
    auto typed = [&](const char *prefix, std::string_view name,
                     const char *suffix, const char *type) {
        t += "# TYPE ";
        metric(prefix, name, suffix);
        t += ' ';
        t += type;
        t += '\n';
        metric(prefix, name, suffix);
        t += ' ';
    };
    auto num = [&](double v) {
        appendNum(t, v);
        t += '\n';
    };
    auto count = [&](std::uint64_t v) {
        appendInt(t, v);
        t += '\n';
    };

    for (const auto &p : reg.counterProbes()) {
        typed("vcp_", p.name, "_total", "counter");
        count(p.fn());
    }
    reg.forEachGauge(
        [&](const std::string &name, const DecayingGauge &g, bool) {
            typed("vcp_", name, "", "gauge");
            num(g.last());
            typed("vcp_", name, "_ewma", "gauge");
            num(g.ewma());
        });
    for (const ResourceUtilization &r : u) {
        typed("vcp_util_", r.name, "", "gauge");
        num(r.utilization);
    }
    reg.forEachHistogram(
        [&](const std::string &name, const LatencyHistogram &h) {
            t += "# TYPE ";
            metric("vcp_", name, " summary\n");
            metric("vcp_", name, "{quantile=\"0.5\"} ");
            num(h.p50());
            metric("vcp_", name, "{quantile=\"0.95\"} ");
            num(h.p95());
            metric("vcp_", name, "{quantile=\"0.99\"} ");
            num(h.p99());
            metric("vcp_", name, "_sum ");
            num(h.sum());
            metric("vcp_", name, "_count ");
            count(h.count());
        });

    std::ofstream pf(prom_path, std::ios::trunc);
    pf.write(t.data(), static_cast<std::streamsize>(t.size()));
    pf.close();
    return !pf.fail();
}

} // namespace vcp

#include "analysis/breakdown.hh"

#include "controlplane/management_server.hh"

namespace vcp {

double
PhaseBreakdown::fraction(TaskPhase p) const
{
    if (total_mean_us <= 0.0)
        return 0.0;
    return mean_us[static_cast<std::size_t>(p)] / total_mean_us;
}

PhaseBreakdown
computeBreakdown(const OpTrace &trace, OpType type)
{
    PhaseBreakdown b;
    b.type = type;
    double total = 0.0;
    std::array<double, kNumTaskPhases> sums{};
    for (const OpRecord &r : trace.all()) {
        if (r.type != type || !r.success)
            continue;
        b.count += 1;
        total += static_cast<double>(r.latency);
        for (std::size_t p = 0; p < kNumTaskPhases; ++p)
            sums[p] += static_cast<double>(r.phases[p]);
    }
    if (b.count == 0)
        return b;
    double n = static_cast<double>(b.count);
    b.total_mean_us = total / n;
    for (std::size_t p = 0; p < kNumTaskPhases; ++p)
        b.mean_us[p] = sums[p] / n;
    return b;
}

Table
breakdownTable(const OpTrace &trace, const std::vector<OpType> &types)
{
    std::vector<std::string> cols = {"op", "count"};
    for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
        cols.push_back(std::string(taskPhaseName(
                           static_cast<TaskPhase>(p))) +
                       "_ms");
    }
    cols.push_back("total_ms");

    Table t(cols);
    for (OpType type : types) {
        PhaseBreakdown b = computeBreakdown(trace, type);
        t.row().cell(opTypeName(type)).cell(b.count);
        for (std::size_t p = 0; p < kNumTaskPhases; ++p)
            t.cell(b.mean_us[p] / 1000.0, 2);
        t.cell(b.total_mean_us / 1000.0, 2);
    }
    return t;
}

namespace {

/** Append one count/mean/p50/p95/p99 row tail (usec in, ms out). */
void
percentileCells(Table &t, const LatencyHistogram &h)
{
    t.cell(h.count())
        .cell(h.mean() / 1000.0, 2)
        .cell(h.p50() / 1000.0, 2)
        .cell(h.p95() / 1000.0, 2)
        .cell(h.p99() / 1000.0, 2);
}

} // namespace

Table
spanBreakdownTable(const ManagementServer &srv)
{
    Table t({"op", "phase", "count", "mean_ms", "p50_ms", "p95_ms",
             "p99_ms"});
    for (std::size_t o = 0; o < kNumOpTypes; ++o) {
        auto op = static_cast<OpType>(o);
        const LatencyHistogram &total = srv.latencyHistogram(op);
        if (total.count() == 0)
            continue;
        for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
            auto phase = static_cast<TaskPhase>(p);
            const LatencyHistogram &h = srv.phaseHistogram(op, phase);
            if (h.count() == 0)
                continue;
            t.row().cell(opTypeName(op)).cell(taskPhaseName(phase));
            percentileCells(t, h);
        }
        t.row().cell(opTypeName(op)).cell("total");
        percentileCells(t, total);
    }
    return t;
}

} // namespace vcp

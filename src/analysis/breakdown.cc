#include "analysis/breakdown.hh"

#include "controlplane/management_server.hh"

namespace vcp {

Table
breakdownTable(const ManagementServer &srv,
               const std::vector<OpType> &types)
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
        const LatencyHistogram &op = srv.latencyHistogram(type);
        double n = static_cast<double>(op.count());
        t.row().cell(opTypeName(type)).cell(op.count());
        for (std::size_t p = 0; p < kNumTaskPhases; ++p) {
            double sum =
                srv.phaseHistogram(type, static_cast<TaskPhase>(p)).sum();
            t.cell(n > 0 ? sum / n / 1000.0 : 0.0, 2);
        }
        t.cell(op.mean() / 1000.0, 2);
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

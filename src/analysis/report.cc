#include "analysis/report.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vcp {

Table
setupTable(const std::vector<const CloudSimulation *> &sims)
{
    Table t({"cloud", "hosts", "datastores", "ds_capacity", "tenants",
             "templates", "vms_per_vapp(min-max)", "mean_lease_h",
             "arrival_per_h", "clone_mode"});
    for (const CloudSimulation *s : sims) {
        const CloudSetupSpec &spec = s->spec();
        int vmin = spec.templates.front().vm_count;
        int vmax = vmin;
        double lease_sum = 0.0;
        for (const TemplateSpec &tmpl : spec.templates) {
            vmin = std::min(vmin, tmpl.vm_count);
            vmax = std::max(vmax, tmpl.vm_count);
            lease_sum += toHours(tmpl.lease);
        }
        t.row()
            .cell(spec.name)
            .cell(spec.infra.hosts)
            .cell(spec.infra.datastores)
            .cell(formatBytes(spec.infra.ds_capacity))
            .cell(static_cast<std::int64_t>(spec.tenants.size()))
            .cell(static_cast<std::int64_t>(spec.templates.size()))
            .cell(std::to_string(vmin) + "-" + std::to_string(vmax))
            .cell(lease_sum / static_cast<double>(
                                  spec.templates.size()),
                  1)
            .cell(spec.workload.arrival.rate_per_hour, 0)
            .cell(spec.director.use_linked_clones ? "linked" : "full");
    }
    return t;
}

Table
opMixTable(const std::vector<const CloudSimulation *> &sims,
           double simulated_days)
{
    if (simulated_days <= 0.0)
        panic("opMixTable: non-positive duration");

    std::vector<std::string> cols = {"category", "op"};
    for (const CloudSimulation *s : sims)
        cols.push_back(s->spec().name + " (ops/day)");
    Table t(cols);

    // Group rows by category, in category order.
    for (std::size_t c = 0; c < kNumOpCategories; ++c) {
        OpCategory cat = static_cast<OpCategory>(c);
        for (std::size_t o = 0; o < kNumOpTypes; ++o) {
            OpType op = static_cast<OpType>(o);
            if (opCategory(op) != cat)
                continue;
            // Skip rows that are zero in every cloud.
            bool any = false;
            for (const CloudSimulation *s : sims) {
                if (s->server().latencyHistogram(op).count() > 0) {
                    any = true;
                    break;
                }
            }
            if (!any)
                continue;
            t.row().cell(opCategoryName(cat)).cell(opTypeName(op));
            for (const CloudSimulation *s : sims) {
                double per_day =
                    static_cast<double>(
                        s->server().latencyHistogram(op).count()) /
                    simulated_days;
                t.cell(per_day, 1);
            }
        }
    }
    return t;
}

Table
rateSeriesTable(const std::vector<const TimeSeries *> &series,
                const std::vector<std::string> &names)
{
    if (series.empty() || series.size() != names.size())
        panic("rateSeriesTable: bad arguments");

    std::vector<std::string> cols = {"t_hours"};
    for (const std::string &n : names)
        cols.push_back(n + "_per_h");
    Table t(cols);

    std::size_t buckets = 0;
    for (const TimeSeries *s : series)
        buckets = std::max(buckets, s->numBuckets());

    for (std::size_t b = 0; b < buckets; ++b) {
        double start_h = 0.0;
        if (b < series[0]->numBuckets())
            start_h = toHours(series[0]->bucket(b).start);
        else
            start_h = toHours(static_cast<SimTime>(b) *
                              series[0]->bucketWidth());
        t.row().cell(start_h, 2);
        for (const TimeSeries *s : series) {
            double rate = 0.0;
            if (b < s->numBuckets()) {
                rate = static_cast<double>(s->bucket(b).count) /
                       toHours(s->bucketWidth());
            }
            t.cell(rate, 1);
        }
    }
    return t;
}

} // namespace vcp

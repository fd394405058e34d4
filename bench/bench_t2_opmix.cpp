/**
 * @file
 * T2 — Management-operation mix of the two clouds (ops/day by
 * primitive operation, grouped by category), plus per-category
 * totals and the cloud-action expansion factor.
 *
 * Reconstructed [R] from "we profile the management workload induced
 * by cloud-computing environments ... two real-world self-service
 * cloud computing setups".  The headline shape: provisioning and
 * power verbs dominate; cloud churn makes previously rare verbs
 * (clone, destroy) the most frequent ones.
 */

#include <array>

#include "analysis/report.hh"
#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vcp;
    setLogQuiet(true);
    double sim_hours =
        argc > 1 ? parseHoursOption("hours", argv[1]) : 24.0;
    banner("T2", "management-operation mix (" +
                     std::to_string(sim_hours) + "h simulated/cloud)");

    CloudSetupSpec spec_a = cloudASpec();
    CloudSetupSpec spec_b = cloudBSpec();
    spec_a.workload.duration = hours(sim_hours);
    spec_b.workload.duration = hours(sim_hours);

    CloudSimulation cloud_a(spec_a, 11);
    CloudSimulation cloud_b(spec_b, 12);
    cloud_a.run();
    cloud_b.run();

    double days_simulated = sim_hours / 24.0;
    printTable("ops/day by type",
               opMixTable({&cloud_a, &cloud_b}, days_simulated));

    // Finished ops per category, summed over each server's cells.
    auto byCategory = [](const CloudSimulation &cs) {
        std::array<std::uint64_t, kNumOpCategories> counts{};
        for (std::size_t o = 0; o < kNumOpTypes; ++o) {
            auto op = static_cast<OpType>(o);
            counts[static_cast<std::size_t>(opCategory(op))] +=
                cs.server().latencyHistogram(op).count();
        }
        return counts;
    };
    Table cat({"category", "cloud-a (ops/day)", "cloud-a (%)",
               "cloud-b (ops/day)", "cloud-b (%)"});
    auto a_cat = byCategory(cloud_a);
    auto b_cat = byCategory(cloud_b);
    double a_total = 0.0, b_total = 0.0;
    for (std::size_t c = 0; c < kNumOpCategories; ++c) {
        a_total += static_cast<double>(a_cat[c]);
        b_total += static_cast<double>(b_cat[c]);
    }
    for (std::size_t c = 0; c < kNumOpCategories; ++c) {
        cat.row()
            .cell(opCategoryName(static_cast<OpCategory>(c)))
            .cell(static_cast<double>(a_cat[c]) / days_simulated, 1)
            .cell(100.0 * static_cast<double>(a_cat[c]) / a_total, 1)
            .cell(static_cast<double>(b_cat[c]) / days_simulated, 1)
            .cell(100.0 * static_cast<double>(b_cat[c]) / b_total, 1);
    }
    printTable("ops/day by category", cat);

    Table expansion({"cloud", "user_actions", "mgmt_ops",
                     "ops_per_action"});
    for (CloudSimulation *cs : {&cloud_a, &cloud_b}) {
        double actions =
            static_cast<double>(cs->driver().actions().size());
        double ops = static_cast<double>(cs->server().opsCompleted() +
                                         cs->server().opsFailed());
        expansion.row()
            .cell(cs->spec().name)
            .cell(actions, 0)
            .cell(ops, 0)
            .cell(actions > 0 ? ops / actions : 0.0, 2);
    }
    printTable("action -> operation expansion", expansion);
    return 0;
}

/**
 * @file
 * T3 — Simulator validation against analytic M/M/c queueing.
 *
 * Methodological check (not a paper table): the ServiceCenter that
 * underlies every control-plane station must reproduce Erlang-C
 * waiting times and Little's law when driven with Poisson arrivals
 * and exponential service.
 */

#include "analysis/queueing.hh"
#include "bench_util.hh"
#include "sim/service_center.hh"

int
main()
{
    using namespace vcp;
    setLogQuiet(true);
    banner("T3", "M/M/c validation of the queueing substrate");

    Table t({"c", "rho", "sim_Wq_s", "mmc_Wq_s", "err_%", "sim_util",
             "littles_L", "mmc_L"});
    for (auto [servers, rho] :
         {std::pair{1, 0.3}, {1, 0.6}, {1, 0.9}, {2, 0.7}, {4, 0.5},
          {4, 0.85}, {8, 0.9}, {16, 0.95}}) {
        Simulator sim(4242);
        ServiceCenter sc(sim, "mmc", servers);
        Rng rng(7);
        double mu = 1.0;
        double lambda = rho * servers * mu;
        const int n = 200000;

        SimTime at = 0;
        for (int i = 0; i < n; ++i) {
            at += seconds(rng.exponential(1.0 / lambda));
            SimDuration service =
                seconds(rng.exponential(1.0 / mu));
            sim.scheduleAt(at, [&sc, service] {
                sc.submit(service, [] {});
            });
        }
        sim.run();

        MmcResult mmc = mmcAnalysis(lambda, mu, servers);
        double sim_wq = sc.meanWait() / 1e6;
        // Little's law: the time-average number in system is the
        // queue's integral plus the busy servers', over the run.
        double area_l =
            static_cast<double>(sc.queueLevel().integralAt(sim.now()) +
                                sc.busyLevel().integralAt(sim.now()));
        double sim_l = area_l / static_cast<double>(sim.now());
        double err = mmc.wq > 0.0
            ? 100.0 * (sim_wq - mmc.wq) / mmc.wq
            : 0.0;
        t.row()
            .cell(static_cast<std::int64_t>(servers))
            .cell(rho, 2)
            .cell(sim_wq, 3)
            .cell(mmc.wq, 3)
            .cell(err, 1)
            .cell(sc.utilization(), 3)
            .cell(sim_l, 2)
            .cell(mmc.l, 2);
    }
    printTable("simulated vs analytic M/M/c", t);
    std::printf("expected shape: errors of a few percent, shrinking "
                "with sample size; Little's-law L matches.\n");
    return 0;
}

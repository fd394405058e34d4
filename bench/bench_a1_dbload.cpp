/**
 * @file
 * A1 (ablation) — Background database load vs operation latency.
 *
 * Management servers run heavy periodic database work of their own
 * (statistics rollups, event/task table purges).  This ablation
 * sweeps the rollup intensity against a steady linked-clone workload
 * and shows the foreground p95 inflate as background transactions
 * contend for the same connection pool — a control-plane design
 * lever the provisioning-rate findings (F3/F4) make urgent.
 */

#include "bench_util.hh"

namespace {

struct LoadPoint
{
    double clone_db_ms = 0.0;
    double clone_p50_s = 0.0;
    double clone_p95_s = 0.0;
    double db_util = 0.0;
    std::uint64_t background_txns = 0;
};

LoadPoint
run(vcp::SimDuration period, int txns, std::uint64_t seed)
{
    using namespace vcp;
    CloudSetupSpec spec = sweepCloud(true);
    // A single connection, as small deployments ran: rollups and
    // operations contend head-on.
    spec.server.db.connections = 1;
    spec.server.background_db_period = period;
    spec.server.background_db_txns = txns;
    spec.workload.duration = hours(2);
    spec.workload.arrival.rate_per_hour = 240.0;
    CloudSimulation cs(spec, seed);
    cs.start();
    cs.runFor(hours(2));
    LoadPoint p;
    p.db_util = cs.server().database().center().utilization();
    cs.runFor(hours(2));
    const LatencyHistogram &lat =
        cs.server().latencyHistogram(OpType::CloneLinked);
    p.clone_db_ms =
        cs.server()
            .phaseHistogram(OpType::CloneLinked, TaskPhase::Db)
            .mean() /
        1000.0;
    p.clone_p50_s = lat.p50() / 1e6;
    p.clone_p95_s = lat.p95() / 1e6;
    p.background_txns =
        cs.stats().counter("cp.db.background_txns").value();
    return p;
}

} // namespace

int
main()
{
    using namespace vcp;
    setLogQuiet(true);
    banner("A1", "background DB rollup load vs op latency");

    Table t({"rollup", "bg_txns", "db_util", "clone_db_ms",
             "clone_p50_s", "clone_p95_s"});
    struct Cfg
    {
        const char *label;
        SimDuration period;
        int txns;
    };
    for (const Cfg &c : {Cfg{"off", 0, 0},
                         Cfg{"600/5min", minutes(5), 600},
                         Cfg{"1800/5min", minutes(5), 1800},
                         Cfg{"1200/1min", minutes(1), 1200},
                         Cfg{"3000/1min", minutes(1), 3000}}) {
        LoadPoint p = run(c.period, c.txns == 0 ? 1 : c.txns, 91);
        t.row()
            .cell(c.label)
            .cell(p.background_txns)
            .cell(p.db_util, 2)
            .cell(p.clone_db_ms, 0)
            .cell(p.clone_p50_s, 2)
            .cell(p.clone_p95_s, 2);
    }
    printTable("foreground clone latency under rollup load", t);
    std::printf("expected shape: the clone's DB phase inflates as "
                "rollups saturate the connection pool; end-to-end "
                "latency follows once the DB share dominates (cf. "
                "F4/F7).\n");
    return 0;
}

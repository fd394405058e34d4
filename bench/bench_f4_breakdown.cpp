/**
 * @file
 * F4 — Per-phase latency breakdown of management operations below
 * saturation, full vs linked clones.
 *
 * Reconstructed [R]: the "where does the time go" figure.  For full
 * clones the data-copy phase dominates end-to-end latency; once
 * linked clones remove it, the remaining time is pure control plane
 * (DB transactions, host-agent execution, locks, queueing) — which
 * is why further provisioning-speed gains must come from control-
 * plane design.
 */

#include "analysis/breakdown.hh"
#include "bench_util.hh"

int
main()
{
    using namespace vcp;
    setLogQuiet(true);
    banner("F4", "phase breakdown of operation latency");

    for (bool linked : {false, true}) {
        CloudSetupSpec spec = sweepCloud(linked);
        spec.workload.arrival.rate_per_hour = 40.0; // well below sat
        spec.workload.action_weights = {20, 5, 10, 5, 3, 2, 2};
        CloudSimulation cs(spec, 41);
        cs.run();

        std::vector<OpType> ops = {
            linked ? OpType::CloneLinked : OpType::CloneFull,
            OpType::PowerOn,
            OpType::PowerOff,
            OpType::Destroy,
            OpType::Reconfigure,
            OpType::Snapshot,
        };
        printTable(std::string(linked ? "linked" : "full") +
                       "-clone cloud (mean ms per phase)",
                   breakdownTable(cs.server(), ops));

        OpType clone_op =
            linked ? OpType::CloneLinked : OpType::CloneFull;
        double total = cs.server().latencyHistogram(clone_op).sum();
        double copy = cs.server()
                          .phaseHistogram(clone_op, TaskPhase::DataCopy)
                          .sum();
        double share = total > 0.0 ? copy / total : 0.0;
        std::printf("%s: data-copy share of latency = %.1f%%, "
                    "control-plane share = %.1f%%\n\n",
                    opTypeName(clone_op), 100.0 * share,
                    100.0 * (1.0 - share));
    }
    return 0;
}

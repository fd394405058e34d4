/**
 * @file
 * F1 — VM provisioning/teardown rate over time (hourly series).
 *
 * Reconstructed [R] from "the rate of VM provisioning in clouds":
 * the figure shows the diurnal churn a self-service cloud induces —
 * provisioning tracks the day curve, teardown echoes it shifted by
 * the lease length.
 */

#include "analysis/report.hh"
#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vcp;
    setLogQuiet(true);
    double sim_hours =
        argc > 1 ? parseHoursOption("hours", argv[1]) : 72.0;
    banner("F1", "VM churn over time, Cloud A (" +
                     std::to_string(sim_hours) + "h)");

    CloudSetupSpec spec = cloudASpec();
    spec.workload.duration = hours(sim_hours);

    CloudSimulation cs(spec, 21);
    TimeSeries provisioned(hours(1)), destroyed(hours(1));
    cs.cloud().setChurnSeries(&provisioned, &destroyed);
    cs.run();

    printTable("VMs provisioned / destroyed per hour",
               rateSeriesTable({&provisioned, &destroyed},
                               {"provisioned", "destroyed"}));

    std::printf("totals: provisioned=%llu destroyed=%llu "
                "peak_prov/h=%.0f live_at_end=%zu\n",
                (unsigned long long)cs.cloud().vmsProvisioned(),
                (unsigned long long)cs.cloud().vmsDestroyed(),
                [&] {
                    double peak = 0.0;
                    for (std::size_t b = 0;
                         b < provisioned.numBuckets(); ++b) {
                        peak = std::max(
                            peak, static_cast<double>(
                                      provisioned.bucket(b).count));
                    }
                    return peak;
                }(),
                cs.inventory().numVms() - cs.templateIds().size());
    return 0;
}

/**
 * @file
 * Paper-style report builders shared by the benchmark binaries:
 * setup tables, operation-mix tables, and rate-over-time series.
 */

#ifndef VCP_ANALYSIS_REPORT_HH
#define VCP_ANALYSIS_REPORT_HH

#include <vector>

#include "stats/table.hh"
#include "stats/timeseries.hh"
#include "workload/profiles.hh"

namespace vcp {

/** T1: configuration of the studied setups, one row per cloud. */
Table setupTable(const std::vector<const CloudSimulation *> &sims);

/**
 * T2: management-operation mix — ops finished per day by type (each
 * server's latency-cell counts, failed ops included), one column per
 * cloud, grouped by category.
 */
Table opMixTable(const std::vector<const CloudSimulation *> &sims,
                 double simulated_days);

/**
 * F1-style series table: one row per bucket with per-series rates
 * (events/hour).
 */
Table rateSeriesTable(const std::vector<const TimeSeries *> &series,
                      const std::vector<std::string> &names);

} // namespace vcp

#endif // VCP_ANALYSIS_REPORT_HH

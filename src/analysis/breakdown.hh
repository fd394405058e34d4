/**
 * @file
 * Latency-breakdown analysis: decomposes end-to-end operation
 * latencies from an OpTrace into the pipeline phases (the paper's
 * "where does provisioning time go" figure, F4).
 */

#ifndef VCP_ANALYSIS_BREAKDOWN_HH
#define VCP_ANALYSIS_BREAKDOWN_HH

#include <array>
#include <vector>

#include "stats/table.hh"
#include "workload/trace.hh"

namespace vcp {

/** Aggregated per-phase latency for one op type. */
struct PhaseBreakdown
{
    OpType type = OpType::PowerOn;
    std::uint64_t count = 0;

    /** Mean time in each phase (usec), over successful ops. */
    std::array<double, kNumTaskPhases> mean_us{};

    /** Mean end-to-end latency (usec). */
    double total_mean_us = 0.0;

    /** Fraction of total attributable to a phase, in [0, 1]. */
    double fraction(TaskPhase p) const;
};

/** Compute the breakdown of one op type from a trace. */
PhaseBreakdown computeBreakdown(const OpTrace &trace, OpType type);

/**
 * Paper-style table: one row per requested op type, one column per
 * phase (mean milliseconds), plus count and total.
 */
Table breakdownTable(const OpTrace &trace,
                     const std::vector<OpType> &types);

class ManagementServer;

/**
 * Per-(op, phase) percentiles from the server's latency cells (exact
 * counts and means; every finished op, successful or not, and only
 * the phases it entered).  One row per (op type, phase) with a
 * sample, plus a "total" row per op type from its end-to-end cell;
 * columns are count, mean, p50, p95, p99 (milliseconds).  Op types
 * with no finished op are skipped.
 */
Table spanBreakdownTable(const ManagementServer &srv);

} // namespace vcp

#endif // VCP_ANALYSIS_BREAKDOWN_HH

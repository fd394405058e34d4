/**
 * @file
 * Latency-breakdown analysis: decomposes end-to-end operation
 * latencies into the pipeline phases (the paper's "where does
 * provisioning time go" figure, F4), read from the management
 * server's latency cells.
 */

#ifndef VCP_ANALYSIS_BREAKDOWN_HH
#define VCP_ANALYSIS_BREAKDOWN_HH

#include <vector>

#include "controlplane/task.hh"
#include "stats/table.hh"

namespace vcp {

class ManagementServer;

/**
 * Paper-style table from the server's latency cells: one row per
 * requested op type, with the count of finished ops (failed ones
 * included), the mean time of each phase over those ops (a phase an
 * op never entered counts as zero) and the mean total, in
 * milliseconds.
 */
Table breakdownTable(const ManagementServer &srv,
                     const std::vector<OpType> &types);

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

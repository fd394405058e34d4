/**
 * @file
 * Bottleneck attribution: answers the paper's central question —
 * *which* plane limits provisioning.  Resource utilizations come from
 * collectUtilizations() (controlplane/management_server.hh) and the
 * verdict from bottleneckOf() (telemetry/health.hh), both re-exported
 * here; this layer adds the table rendering and the span-sourced
 * phase attribution.
 */

#ifndef VCP_ANALYSIS_BOTTLENECK_HH
#define VCP_ANALYSIS_BOTTLENECK_HH

#include <string>
#include <vector>

#include "controlplane/management_server.hh"
#include "stats/table.hh"
#include "telemetry/health.hh"

namespace vcp {

/** Render the utilizations as a table, most-loaded first (ties in
 *  list order, so the top row is the bottleneckOf() verdict). */
Table utilizationTable(const std::vector<ResourceUtilization> &u);

class SpanTracer;

/** One pipeline phase's share of all span-recorded op time. */
struct PhaseAttribution
{
    std::string phase;

    /** Total time recorded in this phase across all op types (ms). */
    double total_ms = 0.0;

    /** Share of the sum over all phases, in [0, 1]. */
    double fraction = 0.0;
};

/**
 * Live bottleneck attribution from span data: where operation time
 * actually went, phase by phase, largest share first.  Complements
 * collectUtilizations() — a resource can be the bottleneck without
 * being saturated (lock serialization, for instance).
 */
std::vector<PhaseAttribution> attributePhases(const SpanTracer &tracer);

/** Render an attribution as a table (phase, total_ms, fraction). */
Table phaseAttributionTable(const std::vector<PhaseAttribution> &a);

/** Name of the phase with the largest share ("none" if no spans). */
std::string dominantPhase(const SpanTracer &tracer);

} // namespace vcp

#endif // VCP_ANALYSIS_BOTTLENECK_HH

/**
 * @file
 * Chrome/Perfetto trace_event JSON export.
 *
 * Serializes a SpanTracer's ring into the legacy trace_event JSON
 * format (the `{"traceEvents": [...]}` object) that both
 * chrome://tracing and ui.perfetto.dev load directly.  Sim ticks are
 * microseconds, which is exactly the unit trace_event expects for
 * `ts`/`dur`, so timestamps pass through untranslated.
 *
 * Layout: operations are packed onto a small set of virtual "op lane"
 * threads (greedy interval-graph coloring at export time), so each
 * lane shows a stack of non-overlapping op spans with their phase and
 * sub-phase slices properly nested inside.  Cloud-level spans
 * (deploys, rebalance passes, lock waits) get per-name lane groups,
 * and counter samples become "C" counter tracks, one event per track
 * and instant (the last value recorded there).
 */

#ifndef VCP_TRACE_PERFETTO_HH
#define VCP_TRACE_PERFETTO_HH

#include <string>

#include "trace/tracer.hh"

namespace vcp {

/** Render the tracer's ring as trace_event JSON. */
std::string exportPerfettoJson(const SpanTracer &tracer);

/**
 * Write the JSON to @p path in ~1 MB chunks, never holding the whole
 * document.
 * @return false (with a warning) if the file cannot be opened, or a
 *         chunk or the close fails.
 */
bool writePerfettoJson(const SpanTracer &tracer,
                       const std::string &path);

} // namespace vcp

#endif // VCP_TRACE_PERFETTO_HH

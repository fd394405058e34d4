/**
 * @file
 * The op-lifecycle span tracer.
 *
 * SpanTracer owns the TraceRing plus everything the raw ring cannot
 * carry: the interned name table for free-form spans and counters and
 * the (op type x phase x error) axes the control plane registers at
 * attach time.  The ring may wrap (the Perfetto export then shows the
 * most recent window).  Per-(op, phase) latency lives in the
 * management server's latency cells, fed once per finished op
 * whether or not a tracer is attached.
 *
 * Hot-path contract: recording does not allocate, does not touch the
 * RNG, and does not schedule events, so an attached tracer leaves the
 * event stream byte-identical to a run without one.  Tracing is off
 * when no tracer is attached.  All string work happens at
 * attach/intern/export time.
 */

#ifndef VCP_TRACE_TRACER_HH
#define VCP_TRACE_TRACER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/ring.hh"

#if VCP_TRACE_DISABLED
#define VCP_TRACER_ON(t) (false)
#else
/** Hot-path guard for SpanTracer pointers (see VCP_TRACE_ON). */
#define VCP_TRACER_ON(t) ((t) != nullptr)
#endif

namespace vcp {

/** Sizing of one tracer. */
struct TracerConfig
{
    /** Ring capacity in records (32 B each). */
    std::size_t capacity = 1u << 20;
};

/** Ring + interned names + op/phase/error axes. */
class SpanTracer
{
  public:
    explicit SpanTracer(const TracerConfig &cfg = {});

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** The raw ring (components hold this pointer for recording). */
    TraceRing &ring() { return ring_; }
    const TraceRing &ring() const { return ring_; }

    /**
     * Register the (op type, phase, error) axes.  Called once by the
     * management server at attach; idempotent for identical axes,
     * panics on conflicting ones (two servers cannot share a tracer).
     */
    void setAxes(std::vector<std::string> op_names,
                 std::vector<std::string> phase_names,
                 std::vector<std::string> error_names);

    /** @{ Axis tables (empty until setAxes). */
    const std::vector<std::string> &opNames() const { return ops; }
    const std::vector<std::string> &phaseNames() const { return phases; }
    const std::vector<std::string> &errorNames() const { return errors; }
    /** @} */

    /**
     * Intern a free-form span/counter/instant name; returns a stable
     * id.  Setup-time only (hashes the string).
     */
    std::uint16_t intern(const std::string &name);

    /** All interned names, id order. */
    const std::vector<std::string> &internedNames() const
    {
        return interned;
    }

    /** @{ Recording (allocation-free). */
    void
    recordPhase(std::uint8_t op, std::uint8_t phase,
                std::int64_t task_id, SimTime start, SimDuration dur)
    {
        ring_.push({start, dur, task_id,
                    static_cast<std::uint16_t>(phase), SpanKind::Phase,
                    op, {}});
    }

    void
    recordOp(std::uint8_t op, std::uint8_t error, std::int64_t task_id,
             SimTime start, SimDuration dur)
    {
        ring_.push({start, dur, task_id,
                    static_cast<std::uint16_t>(error), SpanKind::Op, op,
                    {}});
    }

    void
    recordSpan(std::uint16_t name, std::int64_t scope, SimTime start,
               SimDuration dur)
    {
        ring_.push({start, dur, scope, name, SpanKind::Span, 0xff, {}});
    }

    void
    recordInstant(std::uint16_t name, std::int64_t scope, SimTime t)
    {
        ring_.push({t, 0, scope, name, SpanKind::Instant, 0xff, {}});
    }

    void
    recordCounter(std::uint16_t name, SimTime t, std::int64_t value)
    {
        ring_.push({t, value, 0, name, SpanKind::Counter, 0xff, {}});
    }
    /** @} */

  private:
    TraceRing ring_;

    std::vector<std::string> ops;
    std::vector<std::string> phases;
    std::vector<std::string> errors;

    std::vector<std::string> interned;
    std::unordered_map<std::string, std::uint16_t> intern_ids;
};

} // namespace vcp

#endif // VCP_TRACE_TRACER_HH

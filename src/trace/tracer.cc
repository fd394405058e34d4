#include "trace/tracer.hh"

#include "sim/logging.hh"

namespace vcp {

SpanTracer::SpanTracer(const TracerConfig &cfg)
    : ring_(cfg.capacity)
{}

void
SpanTracer::setAxes(std::vector<std::string> op_names,
                    std::vector<std::string> phase_names,
                    std::vector<std::string> error_names)
{
    if (!ops.empty()) {
        if (ops == op_names && phases == phase_names &&
            errors == error_names) {
            return;
        }
        panic("SpanTracer: conflicting axes (one tracer per server)");
    }
    if (op_names.empty() || phase_names.empty())
        panic("SpanTracer: empty axes");
    if (op_names.size() > 0xfe || phase_names.size() > 0xfe ||
        error_names.size() > 0xffff)
        panic("SpanTracer: axes too large for record encoding");

    ops = std::move(op_names);
    phases = std::move(phase_names);
    errors = std::move(error_names);
}

std::uint16_t
SpanTracer::intern(const std::string &name)
{
    auto it = intern_ids.find(name);
    if (it != intern_ids.end())
        return it->second;
    if (interned.size() > 0xffff)
        panic("SpanTracer: interned-name table overflow");
    std::uint16_t id = static_cast<std::uint16_t>(interned.size());
    interned.push_back(name);
    intern_ids.emplace(name, id);
    return id;
}

} // namespace vcp

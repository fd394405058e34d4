/**
 * @file
 * Trace recording.
 *
 * Two trace levels:
 *
 *  - ActionTrace: what the workload generator decided (deploy for
 *    tenant 3, power-cycle, ...); the --dump-actions log.
 *  - OpTrace: every primitive management operation the control plane
 *    finished, with its latency, disposition, and per-phase
 *    breakdown (the --dump-ops log).  Counts and means come from the
 *    server's latency cells, not from this log.
 *
 * Both are written as CSV, so runs stay inspectable and diffable.
 */

#ifndef VCP_WORKLOAD_TRACE_HH
#define VCP_WORKLOAD_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "controlplane/task.hh"
#include "workload/actions.hh"

namespace vcp {

/** One generator decision. */
struct ActionRecord
{
    SimTime time = 0;
    CloudAction action = CloudAction::Deploy;
    int tenant_index = 0;
    int template_index = 0;
};

/** Log of generator decisions. */
class ActionTrace
{
  public:
    void add(const ActionRecord &r) { records.push_back(r); }
    const std::vector<ActionRecord> &all() const { return records; }
    std::size_t size() const { return records.size(); }

    /** CSV with header: time_us,action,tenant,template. */
    std::string toCsv() const;

  private:
    std::vector<ActionRecord> records;
};

/** One finished management operation. */
struct OpRecord
{
    SimTime submitted = 0;
    OpType type = OpType::PowerOn;
    SimDuration latency = 0;
    bool success = true;
    TaskError error = TaskError::None;
    std::array<SimDuration, kNumTaskPhases> phases{};
};

/** Log of finished management operations. */
class OpTrace
{
  public:
    /** Record a finished task (wire to the server's task observer). */
    void add(const Task &t);

    const std::vector<OpRecord> &all() const { return records; }
    std::size_t size() const { return records.size(); }

    /** CSV with header (see implementation). */
    std::string toCsv() const;

  private:
    std::vector<OpRecord> records;
};

} // namespace vcp

#endif // VCP_WORKLOAD_TRACE_HH

/**
 * @file
 * The management task record.
 *
 * Every operation submitted to the management server becomes a Task
 * that tracks its lifecycle, error disposition, and — central to the
 * characterization — how much wall time each pipeline phase consumed.
 */

#ifndef VCP_CONTROLPLANE_TASK_HH
#define VCP_CONTROLPLANE_TASK_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "controlplane/op_types.hh"
#include "infra/ids.hh"
#include "sim/types.hh"

namespace vcp {

/** Pipeline phases a task's latency decomposes into. */
enum class TaskPhase
{
    Api,       ///< front-door CPU (session, validation, task create)
    Queue,     ///< waiting for a dispatch slot
    Locks,     ///< waiting for entity locks
    Db,        ///< inventory-database transactions
    HostAgent, ///< host-agent slot wait + execution
    DataCopy,  ///< bulk data movement
    Finalize,  ///< completion-side database work
    NumPhases
};

constexpr std::size_t kNumTaskPhases =
    static_cast<std::size_t>(TaskPhase::NumPhases);

/** Stable short name for a phase. */
const char *taskPhaseName(TaskPhase p);

/** Task lifecycle states. */
enum class TaskState
{
    Pending,
    Succeeded,
    Failed,
};

/** Why a task failed. */
enum class TaskError
{
    None,
    NoSuchEntity,     ///< referenced VM/host/datastore does not exist
    InvalidState,     ///< e.g.\ power-on of a powered-on VM
    PlacementFailed,  ///< host cannot admit the VM
    OutOfSpace,       ///< datastore reservation failed
    HostUnavailable,  ///< host disconnected or in maintenance
    BadRequest,       ///< malformed request (missing base disk, ...)
    NetworkUnreachable, ///< data-copy path lost to link/node failure
};

/** Number of TaskError codes (for error-counter caches). */
constexpr std::size_t kNumTaskErrors = 8;

/** Stable short name for an error code. */
const char *taskErrorName(TaskError e);

/** One management operation in flight (or finished). */
class Task
{
  public:
    Task(TaskId id, OpRequest req)
        : task_id(id), op(std::move(req))
    {}

    TaskId id() const { return task_id; }
    const OpRequest &request() const { return op; }
    OpType type() const { return op.type; }

    TaskError error() const { return task_error; }
    bool succeeded() const { return task_state == TaskState::Succeeded; }
    bool finished() const
    {
        return task_state == TaskState::Succeeded ||
               task_state == TaskState::Failed;
    }

    /** Submission time (set by the management server). */
    SimTime submittedAt() const { return submitted; }

    /** End-to-end latency; 0 until finished. */
    SimDuration
    latency() const
    {
        return finished() ? completed - submitted : 0;
    }

    /** Accumulated time in a pipeline phase. */
    SimDuration
    phaseTime(TaskPhase p) const
    {
        return phase_times[static_cast<std::size_t>(p)];
    }

    /**
     * True once the task has entered phase @p p, even for no time.
     * A failed op skips the phases after its failure; the per-phase
     * latency cells count only the phases an op entered.
     */
    bool
    enteredPhase(TaskPhase p) const
    {
        return entered & (1u << static_cast<unsigned>(p));
    }

    /** New VM produced by a provisioning op; invalid otherwise. */
    VmId resultVm() const { return result_vm; }

    /** New disk produced by ReplicateBaseDisk; invalid otherwise. */
    DiskId resultDisk() const { return result_disk; }

    /** @{ Mutators used by the management server pipeline. */
    void markSubmitted(SimTime t) { submitted = t; }

    void
    markFinished(SimTime t, TaskError e)
    {
        completed = t;
        task_error = e;
        task_state = (e == TaskError::None) ? TaskState::Succeeded
                                            : TaskState::Failed;
    }

    /** Charge @p d to phase @p p and mark the phase entered. */
    void
    addPhaseTime(TaskPhase p, SimDuration d)
    {
        phase_times[static_cast<std::size_t>(p)] += d;
        entered |= 1u << static_cast<unsigned>(p);
    }

    void setResultVm(VmId v) { result_vm = v; }
    void setResultDisk(DiskId d) { result_disk = d; }
    /** @} */

  private:
    TaskId task_id;
    OpRequest op;
    TaskState task_state = TaskState::Pending;
    TaskError task_error = TaskError::None;
    SimTime submitted = 0;
    SimTime completed = 0;
    std::array<SimDuration, kNumTaskPhases> phase_times{};
    std::uint8_t entered = 0; ///< bit p: phase p entered
    static_assert(kNumTaskPhases <= 8, "one bit per phase");
    VmId result_vm;
    DiskId result_disk;
};

/** Completion callback delivered when a task finishes. */
using TaskCallback = std::function<void(const Task &)>;

} // namespace vcp

#endif // VCP_CONTROLPLANE_TASK_HH

#include "controlplane/task.hh"

namespace vcp {

const char *
taskPhaseName(TaskPhase p)
{
    switch (p) {
      case TaskPhase::Api:
        return "api";
      case TaskPhase::Queue:
        return "queue";
      case TaskPhase::Locks:
        return "locks";
      case TaskPhase::Db:
        return "db";
      case TaskPhase::HostAgent:
        return "host-agent";
      case TaskPhase::DataCopy:
        return "data-copy";
      case TaskPhase::Finalize:
        return "finalize";
      case TaskPhase::NumPhases:
        break;
    }
    return "unknown";
}

const char *
taskErrorName(TaskError e)
{
    switch (e) {
      case TaskError::None:
        return "none";
      case TaskError::NoSuchEntity:
        return "no-such-entity";
      case TaskError::InvalidState:
        return "invalid-state";
      case TaskError::PlacementFailed:
        return "placement-failed";
      case TaskError::OutOfSpace:
        return "out-of-space";
      case TaskError::HostUnavailable:
        return "host-unavailable";
      case TaskError::BadRequest:
        return "bad-request";
      case TaskError::NetworkUnreachable:
        return "network-unreachable";
    }
    return "unknown";
}

} // namespace vcp

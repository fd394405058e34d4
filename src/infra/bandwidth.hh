/**
 * @file
 * Processor-sharing bandwidth resource.
 *
 * Models a shared pipe (datastore copy bandwidth, host NIC): all
 * active transfer jobs progress simultaneously, each receiving an
 * equal share of the capacity.  When membership changes, remaining
 * work is advanced and the next completion is rescheduled.  This is
 * the standard fluid model for bulk data movement and is what makes
 * full-clone provisioning storms slow each other down realistically.
 */

#ifndef VCP_INFRA_BANDWIDTH_HH
#define VCP_INFRA_BANDWIDTH_HH

#include <cstdint>
#include <map>
#include <string>

#include "sim/inline_action.hh"

#include "sim/simulator.hh"
#include "sim/types.hh"

namespace vcp {

/** Handle to an in-flight transfer job. */
using TransferId = std::uint64_t;

/** Egalitarian processor-sharing model of a shared data pipe. */
class SharedBandwidthResource
{
  public:
    /**
     * @param sim event kernel.
     * @param name for diagnostics.
     * @param capacity_bytes_per_sec total pipe capacity (> 0).
     */
    SharedBandwidthResource(Simulator &sim, std::string name,
                            double capacity_bytes_per_sec);

    SharedBandwidthResource(const SharedBandwidthResource &) = delete;
    SharedBandwidthResource &
    operator=(const SharedBandwidthResource &) = delete;

    /**
     * Begin a transfer of @p bytes; @p on_done fires when it
     * completes.  Zero-byte transfers complete on the next event
     * cycle.  @return handle usable with cancelTransfer().
     */
    TransferId startTransfer(Bytes bytes, InlineAction on_done);

    /**
     * Abort an in-flight transfer; its completion callback never
     * fires.  @return true if the transfer existed.
     */
    bool cancelTransfer(TransferId id);

    /** Number of active transfers. */
    std::size_t activeTransfers() const { return jobs.size(); }

    /** Per-job throughput right now (bytes/s); capacity if idle. */
    double currentShare() const;

    /**
     * Total bytes actually delivered: full size for completed
     * transfers plus partial progress of cancelled ones.
     */
    Bytes bytesCompleted() const { return bytes_done; }

    /**
     * Bytes still outstanding for an in-flight transfer (advances
     * the fluid model to now first).  0 for an unknown id — the
     * transfer already completed or was cancelled.
     */
    Bytes remainingBytes(TransferId id);

    /** Cumulative busy time (at least one job active). */
    SimDuration busyTime() const;

    const std::string &name() const { return label; }

  private:
    struct Job
    {
        double total = 0.0;
        double remaining = 0.0;
        InlineAction on_done;
    };

    /** Advance all jobs' remaining work to the current time. */
    void advance();

    /** (Re)schedule the completion event for the soonest finisher. */
    void rescheduleCompletion();

    /** Fire completions due now. */
    void onCompletion();

    Simulator &sim;
    std::string label;
    double capacity;
    std::map<TransferId, Job> jobs;
    TransferId next_id = 1;
    SimTime last_advance = 0;
    EventId pending_event = 0;
    Bytes bytes_done = 0;
    SimDuration busy_accum = 0;
    SimTime busy_since = 0;
};

} // namespace vcp

#endif // VCP_INFRA_BANDWIDTH_HH

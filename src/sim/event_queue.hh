/**
 * @file
 * Pending-event set for the discrete-event kernel.
 *
 * A hand-rolled d-ary (4-ary) min-heap ordered by (time, priority, sequence).
 * Ties at the same timestamp are broken first by ascending priority
 * value (lower runs earlier) and then by insertion order, which makes
 * runs fully deterministic for a fixed seed.
 *
 * Layout is chosen for the hot path:
 *
 *  - The heap array holds 16-byte entries carrying the complete sort
 *    key — (time, priority) packed into one 64-bit word, (sequence,
 *    slot) into a second — so sift compares never leave the heap
 *    array and one node's four children are 64 contiguous bytes.
 *  - Callbacks live in recycled slot storage; EventId encodes the
 *    issuing sequence number + slot index.  cancel() is O(1): it
 *    destroys the callback and recycles the slot, leaving only a
 *    16-byte tombstone entry behind.  Occupant sequence numbers live
 *    in a dense side array so staleness checks stay cache-resident.
 *  - Tombstones are dropped when they surface at the root; if they
 *    ever exceed a third of the heap, one O(n) compaction sweep
 *    rebuilds the heap from the live entries.
 *  - The heap array and the per-slot side arrays each start on a
 *    cache line and fill whole lines.  A threaded run builds its
 *    shards' queues one after another on one thread; without this
 *    their small arrays could share a line that two workers then
 *    write on every event.
 *
 * Nothing ever touches a hash table, and slot storage is bounded by
 * the peak number of simultaneously pending events.
 *
 * Contract narrowing vs. the obvious int fields, all fine by orders
 * of magnitude for this simulator: event priorities must fit in 16
 * bits (|priority| <= 32767 — model code uses single digits) and
 * event times in 47 bits (about 4.4 simulated years at microsecond
 * ticks), both enforced with panic(); insertion-order tie-breaking
 * at equal (time, priority) compares sequence numbers modulo 2^32,
 * exact unless two such events coexist more than 4 billion pushes
 * apart.
 */

#ifndef VCP_SIM_EVENT_QUEUE_HH
#define VCP_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sim/inline_action.hh"
#include "sim/types.hh"

namespace vcp {

/** Opaque handle for a scheduled event; usable to cancel it. */
using EventId = std::uint64_t;

/** A scheduled callback with its firing time and tie-break keys. */
struct Event
{
    SimTime when = 0;
    int priority = 0;
    std::uint64_t seq = 0;
    EventId id = 0;
    InlineAction action;
};

/** d-ary min-heap of pending events with O(1) cancel. */
class EventQueue
{
  public:
    EventQueue() = default;

    /**
     * Insert an event.
     * @param when absolute simulated firing time.
     * @param priority tie-break at equal time; lower fires first.
     *        Must fit in 16 bits.
     * @param action callback to run.
     * @return handle usable with cancel().
     */
    EventId push(SimTime when, int priority, InlineAction action);

    /**
     * Insert an event with an explicit 32-bit tie-break sequence
     * instead of drawing from the insertion counter.  The sharded
     * kernel uses this for cross-shard deliveries: their keys encode
     * (source shard, source sequence) so ties at equal (time,
     * priority) resolve identically on every run regardless of
     * mailbox arrival timing.  The caller owns key uniqueness.
     */
    EventId pushSeq(SimTime when, int priority, std::uint32_t seq,
                    InlineAction action);

    /**
     * Draw push() sequence numbers from @p counter instead of the
     * queue's private one.  Sharing one counter across the per-shard
     * queues of a deterministic-merge run reproduces the serial
     * kernel's global insertion order exactly.  Null restores the
     * private counter.
     */
    void setSeqCounter(std::uint64_t *counter) { ext_seq = counter; }

    /**
     * Copy the earliest live event's full sort key into
     * @p key1 / @p key2 without removing it.
     * @return false when the queue is empty.
     */
    bool peekKey(std::uint64_t &key1, std::uint64_t &key2);

    /**
     * Cancel a pending event in O(1).  The callback and its slot are
     * reclaimed immediately.
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** @return true when no live (non-cancelled) events remain. */
    bool empty() const { return size() == 0; }

    /** Number of live pending events. */
    std::size_t size() const { return heap.size() - tombstones; }

    /** Firing time of the earliest live event; kMaxSimTime if none. */
    SimTime
    nextTime()
    {
        if (tombstones)
            dropStaleRoot();
        return heap.empty() ? kMaxSimTime : heap[0].when();
    }

    /**
     * Remove and return the earliest live event.
     * @pre !empty()
     */
    Event pop();

    /**
     * Detach the earliest live event and return just its action —
     * the kernel run-loop fast path, skipping Event materialization.
     * The event is fully removed before this returns, so invoking
     * the action may freely push or cancel.
     * @param[out] when set to the event's firing time.
     * @pre !empty()
     */
    InlineAction popAction(SimTime &when);

    /**
     * Number of callback slots ever allocated.  Bounded by the peak
     * number of simultaneously pending events — not by the totals
     * pushed or cancelled — which is the regression guard against the
     * old design's unbounded cancelled-set growth.
     */
    std::size_t slotCapacity() const { return slot_count; }

  private:
    /**
     * Heap fan-out.  4-ary halves the tree depth of a binary heap —
     * the serialized parent->child cache-miss chain in siftDown is
     * what bounds pop throughput — while one level's children still
     * fit in two cache lines (measured faster than 8-ary here).
     */
    static constexpr std::size_t kArity = 4;
    static constexpr std::uint32_t kNil = UINT32_MAX;
    /** free_next marker for a slot currently holding a live event. */
    static constexpr std::uint32_t kInUse = UINT32_MAX - 1;
    /** Priority bias: int16 priority -> unsigned 16-bit key field. */
    static constexpr int kPrioBias = 32768;
    /**
     * Callback storage grows in fixed chunks rather than a single
     * reallocating vector: InlineAction's move is a vtable call, so
     * vector doubling over a large pending set would pay a move storm
     * per growth step.  Chunks keep slot addresses stable and make
     * growth O(chunk).
     */
    static constexpr std::size_t kSlotChunkShift = 12;
    static constexpr std::size_t kSlotChunkSize =
        std::size_t(1) << kSlotChunkShift;
    static constexpr std::size_t kSlotChunkMask = kSlotChunkSize - 1;

    /** Heap array element: full sort key + slot reference; 16 bytes. */
    struct Entry
    {
        /** when << 16 | (priority + 2^15): the primary sort key. */
        std::uint64_t key1;
        /** seq << 32 | slot: FIFO tie-break, then slot reference.
         *  This word doubles as the event's public EventId. */
        std::uint64_t key2;

        bool
        before(const Entry &o) const
        {
            if (key1 != o.key1)
                return key1 < o.key1;
            return key2 < o.key2;
        }

        SimTime
        when() const
        {
            return static_cast<SimTime>(key1 >> 16);
        }

        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(key2);
        }
    };

    static int
    unpackPriority(std::uint64_t key1)
    {
        return static_cast<int>(key1 & 0xffff) - kPrioBias;
    }

    /** @return true when the entry refers to a cancelled event. */
    bool
    stale(const Entry &e) const
    {
        std::uint32_t s = e.slot();
        return free_next[s] != kInUse ||
               gens[s] != static_cast<std::uint32_t>(e.key2 >> 32);
    }

    /** Callback storage for one slot index. */
    InlineAction &
    slotRef(std::uint32_t s)
    {
        return slot_chunks[s >> kSlotChunkShift]
                          [s & kSlotChunkMask];
    }

    /** Allocate (or recycle) a callback slot. */
    std::uint32_t acquireSlot(InlineAction action);

    /** Destroy a slot's callback and put it on the free list. */
    void releaseSlot(std::uint32_t s);

    /** Remove the heap root, restoring heap order. */
    void popRoot();

    /** Remove cancelled entries sitting at the heap root. */
    void dropStaleRoot();

    /** Rebuild the heap from live entries only (drops tombstones). */
    void compact();

    void siftUp(std::size_t pos, Entry entry);
    void siftDown(std::size_t pos, Entry entry);

    static constexpr std::size_t kCacheLine = 64;

    /** Allocates whole cache lines, starting on a line boundary. */
    template <typename T>
    struct LineAllocator
    {
        using value_type = T;

        LineAllocator() = default;
        template <typename U>
        LineAllocator(const LineAllocator<U> &)
        {}

        static std::size_t
        bytes(std::size_t n)
        {
            return (n * sizeof(T) + kCacheLine - 1) & ~(kCacheLine - 1);
        }

        T *
        allocate(std::size_t n)
        {
            return static_cast<T *>(
                ::operator new(bytes(n), std::align_val_t{kCacheLine}));
        }

        void
        deallocate(T *p, std::size_t n)
        {
            ::operator delete(p, bytes(n), std::align_val_t{kCacheLine});
        }

        bool operator==(const LineAllocator &) const { return true; }
    };

    template <typename T>
    using LineVector = std::vector<T, LineAllocator<T>>;

    LineVector<Entry> heap;
    /** Callback storage, indexed by slot via slotRef(). */
    LineVector<std::unique_ptr<InlineAction[]>> slot_chunks;
    /** Slots ever created (== peak pending population). */
    std::size_t slot_count = 0;
    /** Sequence number of each slot's current occupant (dense:
     *  staleness and cancel-validation checks only). */
    LineVector<std::uint32_t> gens;
    /** Free-list links per slot; kInUse marks a live slot. */
    LineVector<std::uint32_t> free_next;
    std::uint32_t free_head = kNil;
    std::size_t tombstones = 0;
    std::uint64_t next_seq = 0;
    /** Optional shared sequence counter (deterministic merge). */
    std::uint64_t *ext_seq = nullptr;
};

} // namespace vcp

#endif // VCP_SIM_EVENT_QUEUE_HH

/**
 * @file
 * Bounded single-producer/single-consumer mailbox for cross-shard
 * event transfer.
 *
 * Each pair of shards in a ShardedSimulator is connected by one
 * mailbox per direction, so every ring has exactly one producer (the
 * sending shard's worker) and one consumer (the receiving shard's
 * worker) and needs no locks on the fast path: the producer owns
 * `tail`, the consumer owns `head`, and each reads the other's index
 * with acquire ordering.  Items are moved in and out, never copied.
 *
 * The ring is bounded; when it fills, the producer spills into an
 * overflow vector under a mutex (cold path).  Once the overflow is
 * non-empty the producer keeps appending there until the consumer
 * has drained it, so per-edge FIFO order is preserved even across a
 * fill/drain cycle — the property the deterministic cross-shard
 * tie-break keys rely on.
 */

#ifndef VCP_SIM_SPSC_MAILBOX_HH
#define VCP_SIM_SPSC_MAILBOX_HH

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace vcp {

/** Bounded SPSC ring with an order-preserving overflow spill. */
template <typename T>
class SpscMailbox
{
  public:
    /** @param capacity ring size; rounded up to a power of two. */
    explicit SpscMailbox(std::size_t capacity = 1024)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        ring.resize(cap);
        mask = cap - 1;
    }

    SpscMailbox(const SpscMailbox &) = delete;
    SpscMailbox &operator=(const SpscMailbox &) = delete;

    /** Producer side: enqueue, spilling to overflow when full. */
    void
    push(T &&item)
    {
        // Once anything spilled, keep spilling until the consumer
        // drains it — otherwise a ring slot freeing up mid-burst
        // would let item k+1 overtake item k.
        if (!overflow_active.load(std::memory_order_relaxed)) {
            std::size_t t = tail.load(std::memory_order_relaxed);
            std::size_t h = head.load(std::memory_order_acquire);
            if (t - h <= mask) {
                ring[t & mask] = std::move(item);
                tail.store(t + 1, std::memory_order_release);
                return;
            }
        }
        std::lock_guard<std::mutex> lock(overflow_mutex);
        overflow.push_back(std::move(item));
        overflow_active.store(true, std::memory_order_release);
    }

    /**
     * Consumer side: dequeue in send order.  Ring items drain first,
     * then the overflow (which only collects while the ring is full,
     * so ring-then-overflow IS send order).
     * @return true if an item was produced into @p out.
     */
    bool
    pop(T &out)
    {
        std::size_t h = head.load(std::memory_order_relaxed);
        std::size_t t = tail.load(std::memory_order_acquire);
        if (h == t) {
            if (!overflow_active.load(std::memory_order_acquire))
                return false;
            // A spill is pending.  Its release store to
            // overflow_active is ordered after every ring push the
            // producer made before spilling, so the first tail read
            // above may be stale: re-read it so ring items older
            // than the spilled ones drain first instead of being
            // overtaken by the overflow.
            t = tail.load(std::memory_order_acquire);
            if (h == t) {
                std::lock_guard<std::mutex> lock(overflow_mutex);
                if (overflow_pos < overflow.size()) {
                    out = std::move(overflow[overflow_pos++]);
                    if (overflow_pos == overflow.size()) {
                        overflow.clear();
                        overflow_pos = 0;
                        overflow_active.store(
                            false, std::memory_order_release);
                    }
                    return true;
                }
                return false;
            }
        }
        out = std::move(ring[h & mask]);
        head.store(h + 1, std::memory_order_release);
        return true;
    }

    /** Consumer-visible emptiness (racy by nature; exact once the
     *  producer is quiescent, e.g.\ once the workers joined). */
    bool
    empty() const
    {
        return head.load(std::memory_order_acquire) ==
                   tail.load(std::memory_order_acquire) &&
               !overflow_active.load(std::memory_order_acquire);
    }

    /** Ring capacity (after power-of-two rounding). */
    std::size_t capacity() const { return mask + 1; }

    /** Approximate enqueued item count (racy by nature; exact once
     *  the producer is quiescent — telemetry backlog probes). */
    std::size_t
    approxSize() const
    {
        std::size_t h = head.load(std::memory_order_acquire);
        std::size_t t = tail.load(std::memory_order_acquire);
        std::size_t n = t >= h ? t - h : 0;
        if (overflow_active.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lock(overflow_mutex);
            n += overflow.size() - overflow_pos;
        }
        return n;
    }

  private:
    std::vector<T> ring;
    std::size_t mask = 0;

    /** Producer-owned write index (consumer reads with acquire). */
    alignas(64) std::atomic<std::size_t> tail{0};
    /** Consumer-owned read index (producer reads with acquire). */
    alignas(64) std::atomic<std::size_t> head{0};

    alignas(64) std::atomic<bool> overflow_active{false};
    mutable std::mutex overflow_mutex;
    std::vector<T> overflow;
    std::size_t overflow_pos = 0;
};

} // namespace vcp

#endif // VCP_SIM_SPSC_MAILBOX_HH

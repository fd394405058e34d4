/**
 * @file
 * The span-record ring buffer: the lowest layer of the op-lifecycle
 * tracer.
 *
 * TraceRing is deliberately dependency-free (sim/types.hh only) and
 * header-only so that *any* layer — including src/sim, which the rest
 * of the trace subsystem sits above — can push records into it
 * without a link-time cycle.  Records are fixed-size PODs in a
 * fixed-capacity buffer allocated once up front; pushing is a bounds
 * check, a struct store, and an index increment.  When the buffer is
 * full the ring wraps, overwriting the oldest records (the export
 * keeps the most recent window; the management server's latency
 * cells are fed separately and never drop).  A gauge track records
 * only its level's changes, so after a wrap it starts at its first
 * change that survived, not at the window's start.
 *
 * Compile-time switch: building with -DVCP_TRACE_DISABLED=1 compiles
 * every recording helper in the tree down to nothing (the hot-path
 * guard macro VCP_TRACE_ON evaluates to false), for deployments that
 * want the ~0% figure to be exactly 0.
 */

#ifndef VCP_TRACE_RING_HH
#define VCP_TRACE_RING_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "sim/types.hh"

#ifndef VCP_TRACE_DISABLED
#define VCP_TRACE_DISABLED 0
#endif

#if VCP_TRACE_DISABLED
#define VCP_TRACE_ON(ring) (false)
#else
/** Hot-path guard: true when @p ring is attached and enabled. */
#define VCP_TRACE_ON(ring) ((ring) != nullptr && (ring)->enabled())
#endif

namespace vcp {

/** What one ring record describes. */
enum class SpanKind : std::uint8_t
{
    Op,      ///< whole-op span; scope=task id, op=op idx, name=error idx
    Phase,   ///< pipeline-phase span; scope=task id, name=phase idx
    Sub,     ///< sub-phase detail inside an op; scope=task id, name=interned
    Span,    ///< named span (deploy, lock wait, ...); name=interned id
    Instant, ///< zero-duration marker (placement decision, ...)
    Counter, ///< a value from its time on; lives in the duration field
};

/**
 * One trace record.  32 bytes; the meaning of @c name and @c scope
 * depends on @c kind (see SpanKind).  All times are sim microseconds.
 */
struct alignas(16) SpanRecord
{
    SimTime start = 0;

    /** Span length, or the value of a Counter record. */
    std::int64_t duration = 0;

    /** Owning scope: task id, vApp id, or 0 when unscoped. */
    std::int64_t scope = 0;

    /** Phase index (Phase), error index (Op), or interned name id. */
    std::uint16_t name = 0;

    SpanKind kind = SpanKind::Op;

    /** Op-type index for Op/Phase records; 0xff otherwise. */
    std::uint8_t op = 0xff;

    std::uint8_t pad[4] = {};
};

static_assert(sizeof(SpanRecord) == 32, "keep ring records compact");

/** Fixed-capacity overwrite-oldest span buffer. */
class TraceRing
{
  public:
    /**
     * @param capacity record slots; allocated once, up front, and not
     *        filled: a slot is read only after push() wrote it, so
     *        an unused part of a large ring costs no page faults.
     * @throws std::bad_alloc as new[] does, past the address space too.
     */
    explicit TraceRing(std::size_t capacity = 1u << 20)
        : slots(capacity ? allocate(capacity) : nullptr), cap(capacity)
    {}

    /** Runtime switch; off costs one predictable branch per site. */
    bool enabled() const { return on; }
    void setEnabled(bool e) { on = e; }

    /** Append one record (overwrites the oldest once full). */
    void
    push(const SpanRecord &r)
    {
        if (cap == 0)
            return;
#if defined(__SSE2__)
        // A large ring is written once per slot and read only at
        // export: stream the record past the cache so recording does
        // not evict the model's working set (or pay the
        // read-for-ownership on every cold line).  Slots are 32 bytes
        // and the block is allocated 16-byte aligned, so two 16-byte
        // streaming stores cover one record.  Single-threaded use:
        // same-core loads (snapshot) see the data without fencing.
        auto *dst = reinterpret_cast<__m128i *>(&slots[head]);
        auto *src = reinterpret_cast<const __m128i *>(&r);
        _mm_stream_si128(dst, _mm_loadu_si128(src));
        _mm_stream_si128(dst + 1, _mm_loadu_si128(src + 1));
#else
        slots[head] = r;
#endif
        if (++head == cap) {
            head = 0;
            wrapped = true;
        }
        ++total;
    }

    /** Records pushed over the ring's lifetime. */
    std::uint64_t totalRecorded() const { return total; }

    /** Records lost to wrapping (oldest-first). */
    std::uint64_t
    dropped() const
    {
        return wrapped ? total - cap : 0;
    }

    /** Live records currently held. */
    std::size_t size() const { return wrapped ? cap : head; }

    std::size_t capacity() const { return cap; }

    /**
     * Visit the live records in place, oldest first.  Export-time
     * only: a push invalidates what the visitor saw.
     */
    template <typename F>
    void
    forEach(F &&f) const
    {
        if (wrapped)
            for (std::size_t i = head; i < cap; ++i)
                f(slots[i]);
        for (std::size_t i = 0; i < head; ++i)
            f(slots[i]);
    }

    /**
     * Copy out the live records, oldest first.  Export-time only —
     * allocation is fine here.
     */
    std::vector<SpanRecord>
    snapshot() const
    {
        std::vector<SpanRecord> out;
        out.reserve(size());
        forEach([&](const SpanRecord &r) { out.push_back(r); });
        return out;
    }

    /** Forget everything (capacity is kept). */
    void
    clear()
    {
        head = 0;
        wrapped = false;
        total = 0;
    }

  private:
    static SpanRecord *
    allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(SpanRecord))
            throw std::bad_array_new_length();
        return static_cast<SpanRecord *>(::operator new(
            n * sizeof(SpanRecord), std::align_val_t{alignof(SpanRecord)}));
    }

    struct Free
    {
        void
        operator()(SpanRecord *p) const
        {
            ::operator delete(p, std::align_val_t{alignof(SpanRecord)});
        }
    };

    std::unique_ptr<SpanRecord[], Free> slots;
    std::size_t cap;
    std::size_t head = 0;
    bool wrapped = false;
    bool on = false;
    std::uint64_t total = 0;
};

} // namespace vcp

#endif // VCP_TRACE_RING_HH

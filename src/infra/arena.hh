/**
 * @file
 * Generational slot-map arena.
 *
 * The storage behind the Inventory (and the management server's task
 * pool): each entity kind lives in its own arena of chunked slabs, so
 *
 *  - entity addresses are stable for the entity's whole lifetime
 *    (chunks are never reallocated or moved),
 *  - lookup by a minted handle is an index plus a generation check,
 *  - destroy recycles the slot in O(1) and bumps its generation so
 *    every outstanding handle to the dead entity is invalidated, and
 *  - use of such a stale handle panics deterministically with a
 *    message naming the entity kind and id.
 *
 * Ids without a slot hint (reconstructed from bare values) resolve
 * through a linear scan over live slots.  That path is cold by
 * construction — every id the simulation itself hands out is a full
 * handle — and exists so traces, tests, and fuzzers can probe with
 * raw numbers.
 */

#ifndef VCP_INFRA_ARENA_HH
#define VCP_INFRA_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace vcp {

/**
 * Chunked generational arena holding entities of type @p T addressed
 * by handles of type @p IdT (an Id<Tag> instantiation).
 *
 * @tparam T entity type; constructed in place, never moved.
 * @tparam IdT the tag-typed id used as the handle.
 */
template <typename T, typename IdT>
class SlotArena
{
  public:
    /** Entities per slab; slabs are allocated on demand. */
    static constexpr std::size_t kChunkSize = 256;

    /** @param what entity-kind noun used in panic messages. */
    explicit SlotArena(const char *what) : kind(what) {}

    SlotArena(const SlotArena &) = delete;
    SlotArena &operator=(const SlotArena &) = delete;

    ~SlotArena()
    {
        for (std::uint32_t s = 0; s < meta.size(); ++s) {
            if (meta[s].live)
                slotPtr(s)->~T();
        }
    }

    /**
     * Create an entity.  @p factory is called as
     * `factory(void *mem, IdT id)` and must placement-new a @c T at
     * @p mem; the fully formed handle (value + slot + generation) is
     * available to the entity's constructor.
     * @return the minted handle.
     */
    template <typename F>
    IdT
    emplace(std::int64_t value, F &&factory)
    {
        std::uint32_t s;
        if (!free_slots.empty()) {
            s = free_slots.back();
            free_slots.pop_back();
        } else {
            s = static_cast<std::uint32_t>(meta.size());
            meta.push_back({});
            // Not zeroed: a slot's bytes are constructed before use.
            if (s / kChunkSize >= chunks.size())
                chunks.push_back(std::make_unique_for_overwrite<Chunk>());
        }
        IdT id(value, s, meta[s].gen);
        factory(static_cast<void *>(slotPtr(s)), id);
        meta[s].live = true;
        meta[s].value = value;
        ++live_slots;
        return id;
    }

    /**
     * Destroy an entity and recycle its slot.  The slot's generation
     * advances, invalidating every outstanding handle.
     */
    void
    destroy(IdT id)
    {
        std::uint32_t s = resolve(id);
        slotPtr(s)->~T();
        meta[s].live = false;
        meta[s].value = -1;
        ++meta[s].gen;
        free_slots.push_back(s);
        --live_slots;
    }

    /** @{ Lookup; panics on a stale handle or an unknown id. */
    T &
    get(IdT id)
    {
        return *slotPtr(resolve(id));
    }

    const T &
    get(IdT id) const
    {
        return *slotPtr(resolve(id));
    }
    /** @} */

    /** True if @p id names a live entity (stale handles: false). */
    bool
    has(IdT id) const
    {
        if (id.hasSlot()) {
            return id.slot < meta.size() && meta[id.slot].live &&
                   meta[id.slot].gen == id.gen;
        }
        return scan(id.value) != kMiss;
    }

    /** Live entity count. */
    std::size_t size() const { return live_slots; }

    /** Live ids as full handles, sorted by value (determinism). */
    std::vector<IdT>
    ids() const
    {
        std::vector<IdT> out;
        out.reserve(live_slots);
        for (std::uint32_t s = 0; s < meta.size(); ++s) {
            if (meta[s].live)
                out.push_back(IdT(meta[s].value, s, meta[s].gen));
        }
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    struct SlotMeta
    {
        std::int64_t value = -1;
        std::uint32_t gen = 0;
        bool live = false;
    };

    struct Chunk
    {
        alignas(T) unsigned char bytes[kChunkSize * sizeof(T)];
    };

    static constexpr std::uint32_t kMiss = 0xffffffffu;

    T *
    slotPtr(std::uint32_t s) const
    {
        auto *bytes =
            const_cast<unsigned char *>(chunks[s / kChunkSize]->bytes);
        return std::launder(reinterpret_cast<T *>(bytes)) +
               s % kChunkSize;
    }

    /** Find the live slot holding @p value, or kMiss. */
    std::uint32_t
    scan(std::int64_t value) const
    {
        for (std::uint32_t s = 0; s < meta.size(); ++s) {
            if (meta[s].live && meta[s].value == value)
                return s;
        }
        return kMiss;
    }

    /** Resolve a handle to its slot, panicking when invalid. */
    std::uint32_t
    resolve(IdT id) const
    {
        if (id.hasSlot()) {
            if (id.slot < meta.size() && meta[id.slot].live &&
                meta[id.slot].gen == id.gen)
                return id.slot;
            if (id.slot < meta.size() && meta[id.slot].gen != id.gen) {
                panic("stale %s handle (id %lld, slot %u, "
                      "generation %u != current %u)",
                      kind, static_cast<long long>(id.value), id.slot,
                      id.gen, meta[id.slot].gen);
            }
            panic("no such %s (id %lld)", kind,
                  static_cast<long long>(id.value));
        }
        std::uint32_t s = scan(id.value);
        if (s == kMiss) {
            panic("no such %s (id %lld)", kind,
                  static_cast<long long>(id.value));
        }
        return s;
    }

    const char *kind;
    std::vector<std::unique_ptr<Chunk>> chunks;
    std::vector<SlotMeta> meta;
    std::vector<std::uint32_t> free_slots;
    std::size_t live_slots = 0;
};

} // namespace vcp

#endif // VCP_INFRA_ARENA_HH

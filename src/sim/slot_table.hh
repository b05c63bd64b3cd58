/**
 * @file
 * Pooled slots addressed by 32-bit handles.
 *
 * A SlotTable owns its objects in fixed-size slabs, like sim::ObjectPool,
 * and recycles them through a LIFO free list without destruction (state
 * and container capacity survive reuse; callers reset what they need).
 * Unlike ObjectPool it names each object by a Handle rather than a
 * pointer: the slot's table-wide index in the low 24 bits and its reuse
 * generation in the high 8. Components pass the handle instead of the
 * object — through channels, queues and event captures — so a hop costs
 * a 4-byte copy, and whoever holds the handle reaches the object with a
 * shift, a mask and one load from the (tiny, always cached) slab array.
 *
 * Lookups and releases are validated unconditionally: a handle whose
 * slot was released (and, up to generation wrap, re-issued since), or
 * one the table never issued, panics — the handle-side equivalent of
 * ObjectPool's double-release panic.
 */

#ifndef GPUWALK_SIM_SLOT_TABLE_HH
#define GPUWALK_SIM_SLOT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"

namespace gpuwalk::sim {

/** Names one live slot of a SlotTable. */
using Handle = std::uint32_t;

/** Never issued: its index lies past any table's capacity. */
inline constexpr Handle noHandle = ~Handle{0};

/** Growable table of recycled @p T slots named by Handle. */
template <typename T>
class SlotTable
{
  public:
    SlotTable() = default;
    SlotTable(const SlotTable &) = delete;
    SlotTable &operator=(const SlotTable &) = delete;

    /**
     * Takes a free slot, growing the table by one slab when none is
     * left. The object keeps whatever state its previous user left.
     */
    Handle
    acquire()
    {
        if (free_.empty())
            grow();
        const Handle h = free_.back();
        free_.pop_back();
        slotAt(h).live = true;
        ++live_;
        return h;
    }

    /** The object @p h names. Panics on a stale handle. */
    T &at(Handle h) { return slotOf(h).value; }
    const T &at(Handle h) const { return slotOf(h).value; }

    /** Frees @p h's slot; @p h goes stale. Panics if already stale. */
    void
    release(Handle h)
    {
        Slot &slot = slotOf(h);
        slot.live = false;
        // Next generation; the index bits stay put.
        slot.handle = h + (Handle{1} << indexBits);
        free_.push_back(slot.handle);
        --live_;
    }

    /** Slots currently acquired. */
    std::size_t live() const { return live_; }

  private:
    static constexpr unsigned indexBits = 24;
    static constexpr Handle indexMask = (Handle{1} << indexBits) - 1;
    static constexpr unsigned slabShift = 8;
    static constexpr std::size_t slabSlots = std::size_t{1} << slabShift;

    struct Slot
    {
        T value{};
        Handle handle = noHandle; ///< current generation's handle
        bool live = false;
    };

    Slot &
    slotAt(Handle h) const
    {
        const Handle idx = h & indexMask;
        return slabs_[idx >> slabShift][idx & (slabSlots - 1)];
    }

    Slot &
    slotOf(Handle h) const
    {
        if (((h & indexMask) >> slabShift) < slabs_.size()) {
            Slot &slot = slotAt(h);
            if (slot.live && slot.handle == h)
                return slot;
        }
        panic("stale handle ", h, " (slot released or never issued)");
    }

    void
    grow()
    {
        const std::size_t base = slabs_.size() * slabSlots;
        GPUWALK_ASSERT(base + slabSlots <= indexMask,
                       "slot table index overflow");
        slabs_.push_back(std::make_unique<Slot[]>(slabSlots));
        // LIFO free list: push in reverse so the first acquires come
        // out in slab order.
        for (std::size_t i = slabSlots; i-- > 0;) {
            const auto h = static_cast<Handle>(base + i);
            slabs_.back()[i].handle = h;
            free_.push_back(h);
        }
    }

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<Handle> free_;
    std::size_t live_ = 0;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_SLOT_TABLE_HH

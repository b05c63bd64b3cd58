/**
 * @file
 * Slab-backed free-list pools for hot simulation objects.
 *
 * A pool owns its objects in contiguous slabs and recycles them
 * through a LIFO free list, so the steady-state cost of acquiring a
 * record on the simulator's hot paths (event nodes, MSHR/merge
 * entries) is a pointer pop instead of a malloc. Objects are
 * constructed once per slot and *reused as-is* across acquire/release
 * cycles: state they carry (including any container capacity they
 * grew) survives recycling, which is exactly what makes repeated use
 * allocation-free. Callers reset whatever state matters to them.
 *
 * Each slot is the object followed by a small header: its live flag,
 * owning pool and slab index. Acquire and release touch only that
 * header, so both are O(1) however many slabs the pool has grown.
 *
 * Release is validated unconditionally (not just in debug builds):
 * releasing an object twice, or a pointer the pool never issued,
 * panics immediately instead of corrupting the free list. A pointer
 * is accepted only if it lies inside the hull of this pool's slabs,
 * its header names this pool and an existing slab, and it sits
 * exactly on a slot boundary of that slab.
 */

#ifndef GPUWALK_SIM_OBJECT_POOL_HH
#define GPUWALK_SIM_OBJECT_POOL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sim/logging.hh"

namespace gpuwalk::sim {

/** Growable slab pool of default-constructed, recycled @p T objects. */
template <typename T>
class ObjectPool
{
  public:
    /** @param slab_objects Objects added per exhaustion-triggered
     *  growth step. */
    explicit ObjectPool(std::size_t slab_objects = 256)
        : slabObjects_(slab_objects)
    {
        GPUWALK_ASSERT(slabObjects_ > 0, "pool needs a slab size");
    }

    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    ~ObjectPool()
    {
        for (const Slab &slab : slabs_) {
            for (std::size_t i = 0; i < slabObjects_; ++i)
                objectAt(slab, i)->~T();
        }
    }

    /**
     * Returns a free object, growing the pool by one slab when the
     * free list is exhausted. The object retains whatever state its
     * previous user left; the caller resets what it needs.
     */
    T *
    acquire()
    {
        if (free_.empty())
            grow();
        T *obj = free_.back();
        free_.pop_back();
        headerOf(obj)->live = 1;
        ++inUse_;
        if (inUse_ > peakInUse_)
            peakInUse_ = inUse_;
        return obj;
    }

    /** Returns @p obj to the free list. Panics on double release or
     *  on a pointer this pool never issued. */
    void
    release(T *obj)
    {
        Header *header = validHeader(obj);
        GPUWALK_ASSERT(header->live == 1, "double release of pooled object ",
                       static_cast<const void *>(obj));
        header->live = 0;
        GPUWALK_ASSERT(inUse_ > 0, "pool release underflow");
        --inUse_;
        free_.push_back(obj);
    }

    /** Total objects owned (free + in use). */
    std::size_t capacity() const { return slabs_.size() * slabObjects_; }

    /** Objects currently acquired. */
    std::size_t inUse() const { return inUse_; }

    /** High-water mark of simultaneously acquired objects. */
    std::size_t peakInUse() const { return peakInUse_; }

    /** Growth steps taken so far. */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    /** Per-slot bookkeeping, stored right after the object. */
    struct Header
    {
        const ObjectPool *owner = nullptr;
        std::uint32_t slab = 0;
        std::uint8_t live = 0;
    };

    static constexpr std::size_t
    roundUp(std::size_t n, std::size_t align)
    {
        return (n + align - 1) / align * align;
    }

    static constexpr std::size_t headerOffset =
        roundUp(sizeof(T), alignof(Header));
    static constexpr std::size_t slotBytes =
        roundUp(headerOffset + sizeof(Header),
                std::max(alignof(T), alignof(Header)));

    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned pooled type");

    /** One growth step: raw storage for slabObjects_ slots. */
    using Slab = std::unique_ptr<std::byte[]>;

    static T *
    objectAt(const Slab &slab, std::size_t i)
    {
        return std::launder(reinterpret_cast<T *>(slab.get() + i * slotBytes));
    }

    static Header *
    headerOf(T *obj)
    {
        return std::launder(reinterpret_cast<Header *>(
            reinterpret_cast<std::byte *>(obj) + headerOffset));
    }

    void
    grow()
    {
        GPUWALK_ASSERT(slabs_.size() < UINT32_MAX, "pool slab index overflow");
        Slab slab(new std::byte[slabObjects_ * slotBytes]);
        const auto index = static_cast<std::uint32_t>(slabs_.size());
        for (std::size_t i = 0; i < slabObjects_; ++i) {
            std::byte *slot = slab.get() + i * slotBytes;
            ::new (slot) T();
            ::new (slot + headerOffset) Header{this, index, 0};
        }
        const std::uintptr_t first = address(slab);
        const std::uintptr_t last = first + (slabObjects_ - 1) * slotBytes;
        if (slabs_.empty()) {
            hullFirst_ = first;
            hullLast_ = last;
        } else {
            hullFirst_ = std::min(hullFirst_, first);
            hullLast_ = std::max(hullLast_, last);
        }
        free_.reserve(capacity() + slabObjects_);
        // LIFO free list: push in reverse so the first acquires come
        // out in slab order (warm, sequential first touch).
        for (std::size_t i = slabObjects_; i-- > 0;)
            free_.push_back(objectAt(slab, i));
        slabs_.push_back(std::move(slab));
    }

    /**
     * Header of @p obj after checking that the pool issued it: inside
     * the slab hull (so the header read stays within the span of this
     * pool's slabs), owned by this pool, and on a slot boundary of the
     * slab its header names. Panics on anything else.
     */
    Header *
    validHeader(T *obj)
    {
        const auto addr = reinterpret_cast<std::uintptr_t>(obj);
        if (slabs_.empty() || addr < hullFirst_ || addr > hullLast_)
            nonPooled(obj);
        Header *header = headerOf(obj);
        if (header->owner != this || header->slab >= slabs_.size())
            nonPooled(obj);
        // Below the slab's first slot, the offset wraps past the bound.
        const std::uintptr_t offset = addr - address(slabs_[header->slab]);
        if (offset >= slabObjects_ * slotBytes || offset % slotBytes != 0)
            nonPooled(obj);
        return header;
    }

    static std::uintptr_t
    address(const Slab &slab)
    {
        return reinterpret_cast<std::uintptr_t>(slab.get());
    }

    [[noreturn]] static void
    nonPooled(T *obj)
    {
        panic("release of non-pooled object ",
              static_cast<const void *>(obj));
    }

    std::size_t slabObjects_;
    std::vector<Slab> slabs_;
    std::vector<T *> free_;
    std::uintptr_t hullFirst_ = 0; ///< lowest slot-0 object address
    std::uintptr_t hullLast_ = 0;  ///< highest last-slot object address
    std::size_t inUse_ = 0;
    std::size_t peakInUse_ = 0;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_OBJECT_POOL_HH

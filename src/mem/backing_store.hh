/**
 * @file
 * Sparse functional memory.
 *
 * Stores real bytes for the fraction of physical memory that needs
 * functional content — primarily the page tables, which the IOMMU's
 * walkers decode entry by entry. Frames are allocated lazily and
 * zero-filled, matching OS behaviour for freshly allocated page-table
 * pages. Storage is slabbed: frames live in fixed-size arrays of 64
 * and a flat index maps frame numbers to slots, so materializing a
 * frame costs one heap allocation per 64 frames rather than one per
 * frame, and the per-PTE-read lookup is a single open-addressed probe.
 */

#ifndef GPUWALK_MEM_BACKING_STORE_HH
#define GPUWALK_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/types.hh"
#include "sim/flat_map.hh"
#include "sim/logging.hh"

namespace gpuwalk::mem {

/** Sparse, lazily allocated physical memory with functional content. */
class BackingStore
{
  public:
    BackingStore() = default;

    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    /** Reads @p size bytes (1-8, not crossing a frame) at @p addr. */
    std::uint64_t
    read(Addr addr, unsigned size) const
    {
        GPUWALK_ASSERT(size >= 1 && size <= 8, "bad read size ", size);
        GPUWALK_ASSERT(sameFrame(addr, size),
                       "read crosses frame boundary at ", addr);
        const Frame *f = find(pageNumber(addr));
        if (!f)
            return 0;
        std::uint64_t v = 0;
        std::memcpy(&v, f->data() + (addr & (pageSize - 1)), size);
        return v;
    }

    /** Writes @p size bytes (1-8, not crossing a frame) at @p addr. */
    void
    write(Addr addr, std::uint64_t value, unsigned size)
    {
        GPUWALK_ASSERT(size >= 1 && size <= 8, "bad write size ", size);
        GPUWALK_ASSERT(sameFrame(addr, size),
                       "write crosses frame boundary at ", addr);
        Frame &f = findOrCreate(pageNumber(addr));
        std::memcpy(f.data() + (addr & (pageSize - 1)), &value, size);
    }

    /** Reads a 64-bit little-endian word (e.g., a PTE). */
    std::uint64_t read64(Addr addr) const { return read(addr, 8); }

    /** Writes a 64-bit little-endian word. */
    void write64(Addr addr, std::uint64_t v) { write(addr, v, 8); }

    /**
     * The bytes of the frame containing @p addr, materializing it if
     * needed. Slabs never move and frames are never erased, so the
     * pointer stays valid for the store's lifetime: a bulk writer
     * (PageTable::mapRange) fills a whole table page through it with
     * one index probe.
     */
    std::uint8_t *
    frameBytes(Addr addr)
    {
        return findOrCreate(pageNumber(addr)).data();
    }

    /** Number of frames actually materialized. */
    std::size_t framesAllocated() const { return index_.size(); }

    /** True if the frame containing @p addr has been materialized.
     *  Lets eviction machinery skip saving frames that were never
     *  written (their content is implicitly zero). */
    bool
    contains(Addr addr) const
    {
        return find(pageNumber(addr)) != nullptr;
    }

  private:
    using Frame = std::array<std::uint8_t, pageSize>;

    /** Frames per slab allocation. */
    static constexpr std::size_t slabFrames = 64;

    static bool
    sameFrame(Addr addr, unsigned size)
    {
        return pageNumber(addr) == pageNumber(addr + size - 1);
    }

    const Frame *
    find(Addr frame_number) const
    {
        const auto it = index_.find(frame_number);
        return it == index_.end() ? nullptr : &frameAt(it->second);
    }

    Frame &
    findOrCreate(Addr frame_number)
    {
        const auto [it, inserted] =
            index_.try_emplace(frame_number, std::uint64_t{0});
        if (inserted) {
            const std::size_t slot = nextSlot_++;
            if (slot / slabFrames == slabs_.size()) {
                // Value-initialization zero-fills the whole slab.
                slabs_.push_back(
                    std::make_unique<Frame[]>(slabFrames));
            }
            it->second = slot;
        }
        return const_cast<Frame &>(frameAt(it->second));
    }

    const Frame &
    frameAt(std::uint64_t slot) const
    {
        return slabs_[slot / slabFrames][slot % slabFrames];
    }

    std::vector<std::unique_ptr<Frame[]>> slabs_;
    sim::FlatMap<Addr, std::uint64_t> index_; ///< frame number -> slot
    std::size_t nextSlot_ = 0;
};

} // namespace gpuwalk::mem

#endif // GPUWALK_MEM_BACKING_STORE_HH

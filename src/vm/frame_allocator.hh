/**
 * @file
 * Physical frame allocation.
 *
 * A simple OS-like bump allocator over a configured amount of physical
 * memory. An optional stride-scramble mimics the effect of a real OS
 * free list, where consecutively mapped virtual pages do not land on
 * consecutive physical frames.
 */

#ifndef GPUWALK_VM_FRAME_ALLOCATOR_HH
#define GPUWALK_VM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <optional>

#include "mem/types.hh"
#include "sim/logging.hh"

namespace gpuwalk::vm {

/** Hands out 4 KB physical frames. */
class FrameAllocator
{
  public:
    /**
     * @param phys_bytes Size of physical memory.
     * @param scramble If true, permute frame order with a multiplicative
     *        stride so VA-contiguous pages are PA-scattered.
     */
    explicit FrameAllocator(mem::Addr phys_bytes = mem::Addr(8) << 30,
                            bool scramble = false)
        : totalFrames_(phys_bytes / mem::pageSize), scramble_(scramble)
    {
        GPUWALK_ASSERT(totalFrames_ > 0, "empty physical memory");
    }

    /** Allocates one frame; returns its physical base address.
     *  Running out is a fatal configuration error (physical memory
     *  is a config knob). */
    mem::Addr
    allocateFrame()
    {
        if (nextFrame_ >= totalFrames_)
            sim::fatal("out of physical memory (", totalFrames_,
                       " frames)");
        std::uint64_t frame = nextFrame_++;
        if (scramble_) {
            // Odd multiplier => bijection mod any power-of-two frame
            // count; for non-power-of-two counts fall back to linear.
            if ((totalFrames_ & (totalFrames_ - 1)) == 0)
                frame = (frame * 2654435761ull) & (totalFrames_ - 1);
        }
        return frame * mem::pageSize;
    }

    /**
     * Allocates a 2 MB-aligned run of 512 frames for a large page.
     * Large frames come from the top of physical memory (real OSes
     * reserve contiguity pools); collision with the 4 KB region is a
     * fatal out-of-memory condition.
     */
    mem::Addr
    allocateLargeFrame()
    {
        const auto pa = tryAllocateLargeFrame();
        if (!pa)
            sim::fatal("out of physical memory for large pages (",
                       totalFrames_, " frames)");
        return *pa;
    }

    /**
     * Non-fatal variant of allocateLargeFrame(): returns nullopt when
     * the contiguity pool has collided with the 4 KB bump region.
     * The GMMU uses this for opportunistic Mosaic-style reservations,
     * falling back to scattered 4 KB frames when contiguity runs out.
     */
    std::optional<mem::Addr>
    tryAllocateLargeFrame()
    {
        if (largeTop_ == 0)
            largeTop_ = totalFrames_ & ~(framesPer2M - 1);
        if (largeTop_ < framesPer2M
            || largeTop_ - framesPer2M < nextFrame_)
            return std::nullopt;
        largeTop_ -= framesPer2M;
        return largeTop_ * mem::pageSize;
    }

    std::uint64_t framesAllocated() const { return nextFrame_; }
    std::uint64_t framesTotal() const { return totalFrames_; }

    /** 4 KB frames taken so far, from both ends (the 4 KB bump region
     *  and the 2 MB pool at the top). */
    std::uint64_t
    framesInUse() const
    {
        const std::uint64_t largeTaken =
            largeTop_ == 0 ? 0
                           : (totalFrames_ & ~(framesPer2M - 1)) - largeTop_;
        return nextFrame_ + largeTaken;
    }

  private:
    static constexpr std::uint64_t framesPer2M = 512;

    std::uint64_t totalFrames_;
    std::uint64_t nextFrame_ = 0;
    std::uint64_t largeTop_ = 0;
    bool scramble_;
};

} // namespace gpuwalk::vm

#endif // GPUWALK_VM_FRAME_ALLOCATOR_HH

/**
 * @file
 * Physical frame allocation.
 *
 * A simple OS-like bump allocator over a configured amount of physical
 * memory. An optional stride-scramble mimics the effect of a real OS
 * free list, where consecutively mapped virtual pages do not land on
 * consecutive physical frames. 2 MB frames come from a pool at the top
 * of memory. The two never overlap: each 2 MB block records whether it
 * holds a 4 KB frame or was handed out whole, and each side skips what
 * the other has taken.
 */

#ifndef GPUWALK_VM_FRAME_ALLOCATOR_HH
#define GPUWALK_VM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

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
        : totalFrames_(phys_bytes / mem::pageSize), scramble_(scramble),
          largeTop_(totalFrames_ & ~(framesPer2M - 1)),
          blocks_((totalFrames_ + framesPer2M - 1) / framesPer2M,
                  Block::Free)
    {
        GPUWALK_ASSERT(totalFrames_ > 0, "empty physical memory");
    }

    /** Allocates one frame; returns its physical base address.
     *  Frames inside a handed-out 2 MB frame are skipped. Running out
     *  is a fatal configuration error (physical memory is a config
     *  knob). */
    mem::Addr
    allocateFrame()
    {
        for (;;) {
            if (nextFrame_ >= totalFrames_)
                sim::fatal("out of physical memory (", totalFrames_,
                           " frames)");
            std::uint64_t frame = nextFrame_++;
            if (scramble_) {
                // Odd multiplier => bijection mod any power-of-two
                // frame count; for non-power-of-two counts fall back
                // to linear.
                if ((totalFrames_ & (totalFrames_ - 1)) == 0)
                    frame = (frame * 2654435761ull) & (totalFrames_ - 1);
            }
            Block &block = blocks_[frame / framesPer2M];
            if (block == Block::Large)
                continue;
            block = Block::Small;
            ++smallFrames_;
            return frame * mem::pageSize;
        }
    }

    /**
     * Allocates a 2 MB-aligned run of 512 frames for a large page.
     * Large frames come from the top of physical memory (real OSes
     * reserve contiguity pools); running out of blocks free of 4 KB
     * frames is a fatal out-of-memory condition.
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
     * Non-fatal variant of allocateLargeFrame(): takes the highest
     * block below the pool's top that holds no 4 KB frame, or returns
     * nullopt when none is left. Under scramble, 4 KB frames spread
     * over all of memory, so a block is skipped (and lost to the pool)
     * whenever one of them landed in it. The GMMU uses this for
     * opportunistic Mosaic-style reservations, falling back to
     * scattered 4 KB frames when contiguity runs out.
     */
    std::optional<mem::Addr>
    tryAllocateLargeFrame()
    {
        while (largeTop_ >= framesPer2M) {
            largeTop_ -= framesPer2M;
            Block &block = blocks_[largeTop_ / framesPer2M];
            if (block != Block::Free)
                continue;
            block = Block::Large;
            ++largeFrames_;
            return largeTop_ * mem::pageSize;
        }
        return std::nullopt;
    }

    /** 4 KB frames handed out by allocateFrame(). */
    std::uint64_t framesAllocated() const { return smallFrames_; }
    std::uint64_t framesTotal() const { return totalFrames_; }

    /** 4 KB frames taken so far, from both ends (the 4 KB bump region
     *  and the 2 MB pool at the top). */
    std::uint64_t
    framesInUse() const
    {
        return smallFrames_ + largeFrames_ * framesPer2M;
    }

  private:
    static constexpr std::uint64_t framesPer2M = 512;

    /** What a 2 MB-aligned block of physical memory has given out. */
    enum class Block : std::uint8_t
    {
        Free,
        Small, ///< at least one 4 KB frame
        Large, ///< the whole block, as one 2 MB frame
    };

    std::uint64_t totalFrames_;
    bool scramble_;
    std::uint64_t nextFrame_ = 0; ///< bump index of the next 4 KB frame
    std::uint64_t largeTop_;      ///< lowest frame the pool has reached
    std::uint64_t smallFrames_ = 0;
    std::uint64_t largeFrames_ = 0;
    std::vector<Block> blocks_;
};

} // namespace gpuwalk::vm

#endif // GPUWALK_VM_FRAME_ALLOCATOR_HH

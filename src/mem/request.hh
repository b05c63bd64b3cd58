/**
 * @file
 * The request/port abstraction connecting memory-system components.
 */

#ifndef GPUWALK_MEM_REQUEST_HH
#define GPUWALK_MEM_REQUEST_HH

#include <cstdint>
#include <utility>

#include "mem/types.hh"
#include "sim/inline_function.hh"
#include "sim/ticks.hh"

namespace gpuwalk::sim {
template <typename Msg>
class Channel;
} // namespace gpuwalk::sim

namespace gpuwalk::mem {

struct MemoryRequest;

/** Channel carrying completed memory requests back to the requester
 *  (sim/port.hh). */
using MemoryReplyChannel = sim::Channel<MemoryRequest>;

/**
 * An asynchronous memory request.
 *
 * Requests are timing-only for the data path (no payload); functional
 * data (the page tables) lives in the BackingStore and is read
 * separately by the walker once timing completes.
 */
struct MemoryRequest
{
    /** Physical address accessed. */
    Addr addr = 0;

    /** Access size in bytes (whole cache line for fills). */
    unsigned size = cacheLineSize;

    /** True for writes/writebacks. */
    bool write = false;

    /** Originator, for stats. */
    Requester requester = Requester::Other;

    /**
     * Execution context of the access (SIMD instruction ID, wavefront,
     * CU). Zero for requests with no GPU context (writebacks, walks).
     * Plain integers so the memory layer stays independent of the
     * GPU/TLB layers; consumers that need translation context (the
     * virtual-cache bridge) read these.
     */
    std::uint64_t instruction = 0;
    std::uint32_t wavefront = 0;
    std::uint32_t cu = 0;

    /**
     * Invoked exactly once when the access completes. May be empty.
     * Inline-stored (no allocation) for the hot captures; move-only
     * callables — e.g. owning a moved-in request — are fine.
     */
    sim::InlineFunction<void()> onComplete;

    /**
     * When set, the completing device sends the finished request back
     * through this channel instead of invoking onComplete directly, so
     * the reply edge is timed and counted like the request edge.
     * Stamped by the request-side channel adapter
     * (mem/channel_port.hh); null for direct wiring.
     */
    MemoryReplyChannel *reply = nullptr;

    void
    complete()
    {
        if (onComplete) {
            // Move out first so a callback destroying this request is safe.
            auto cb = std::move(onComplete);
            cb();
        }
    }
};

/**
 * Anything that can accept timing memory requests: caches, the DRAM
 * controller, or test stubs.
 */
class MemoryDevice
{
  public:
    virtual ~MemoryDevice() = default;

    /**
     * Accepts @p req. The device takes ownership and will invoke
     * req.onComplete when the access finishes. Devices are assumed to
     * have sufficient internal queueing (bounded in practice by the
     * self-throttling of the upstream components).
     */
    virtual void access(MemoryRequest req) = 0;
};

} // namespace gpuwalk::mem

#endif // GPUWALK_MEM_REQUEST_HH

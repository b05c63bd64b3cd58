/**
 * @file
 * The request/port abstraction connecting memory-system components.
 */

#ifndef GPUWALK_MEM_REQUEST_HH
#define GPUWALK_MEM_REQUEST_HH

#include <cstddef>
#include <cstdint>

#include "mem/types.hh"
#include "sim/request_table.hh"

namespace gpuwalk::sim {
template <typename Msg>
class Channel;
} // namespace gpuwalk::sim

namespace gpuwalk::mem {

/** A memory request's slot handle. */
using RequestHandle = sim::Handle;

/** Channel carrying completed memory requests back to the requester
 *  (sim/port.hh). */
using MemoryReplyChannel = sim::Channel<RequestHandle>;

/**
 * An asynchronous memory request.
 *
 * Requests are timing-only for the data path (no payload); functional
 * data (the page tables) lives in the BackingStore and is read
 * separately by the walker once timing completes. Requests live in a
 * MemoryTable slot and travel as its handle.
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
     * When set, the completing device sends the finished request back
     * through this channel instead of completing it in place, so the
     * reply edge is timed and counted like the request edge. Stamped
     * by the request-side channel adapter (mem/channel_port.hh); null
     * for direct wiring.
     */
    MemoryReplyChannel *reply = nullptr;
};

/** Who a memory request's completion goes back to. */
enum class MemoryRouteKind : std::uint8_t
{
    None,      ///< nobody: writebacks and phantoms
    CuLine,    ///< a CU data line; tag = instruction slot
    CacheMshr, ///< a cache fill; tag = MSHR
    Walker,    ///< a page table walker's PTE read; tag = walker id
    Relay,     ///< a fault interposer; tag = the request it relays
};

using MemoryRoute = sim::Route<MemoryRouteKind>;

/** A component that issues memory requests and hears them finish. */
class MemorySink
{
  public:
    virtual ~MemorySink() = default;

    /** A request routed here completed; its slot is already free. */
    virtual void memoryDone(const MemoryRoute &route) = 0;

    /** Requests routed here still outstanding (slot audit). */
    virtual std::size_t memoryInFlight() const = 0;
};

/** Every in-flight memory request of one System. */
class MemoryTable
    : public sim::RequestTable<MemoryRequest, MemoryRouteKind, MemorySink>
{
  public:
    /** Final completion of @p req: frees its slot, tells its sink. */
    void
    complete(RequestHandle req)
    {
        const MemoryRoute route = retire(req);
        if (route.sink != sim::noSink)
            sink(route.sink).memoryDone(route);
    }

    /** Registers the "mem.request_slots" audit. */
    void
    registerInvariants(sim::Auditor &auditor)
    {
        registerInvariant(auditor, "mem.request_slots",
                          &MemorySink::memoryInFlight);
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
     * Accepts @p req. The device completes it through its table when
     * the access finishes. Devices are assumed to have sufficient
     * internal queueing (bounded in practice by the self-throttling
     * of the upstream components).
     */
    virtual void access(RequestHandle req) = 0;
};

} // namespace gpuwalk::mem

#endif // GPUWALK_MEM_REQUEST_HH

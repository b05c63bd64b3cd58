/**
 * @file
 * Fault-injecting interposer for the IOMMU↔memory port boundary.
 *
 * Wraps any MemoryDevice (the walk cache or the DRAM controller) and
 * misbehaves on the crossings a FaultInjector selects. Test-only; see
 * sim/fault_injector.hh and tlb/fault_injection.hh for the matching
 * TLB-side adapter.
 */

#ifndef GPUWALK_MEM_FAULT_INJECTION_HH
#define GPUWALK_MEM_FAULT_INJECTION_HH

#include <cstddef>
#include <cstdint>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"

namespace gpuwalk::mem {

/**
 * MemoryDevice decorator applying drop/delay/duplicate faults.
 *
 * - Drop: the request is forwarded with its route cleared — memory
 *   finishes the access, the requester (a walker's PTE fetch, a cache
 *   fill) waits forever.
 * - Delay: a relay copy routed back here is forwarded instead; its
 *   completion re-delivers the original delayTicks later.
 * - Duplicate: a phantom copy of the request (no route) is forwarded
 *   after the real one.
 */
class FaultyMemoryDevice final : public MemoryDevice, public MemorySink
{
  public:
    FaultyMemoryDevice(sim::EventQueue &eq, MemoryTable &table,
                       MemoryDevice &below, sim::FaultInjector::Spec spec)
        : eq_(eq), table_(table), below_(below),
          sinkId_(table.attach(*this)), injector_(spec)
    {}

    void
    access(RequestHandle req) override
    {
        switch (injector_.decide()) {
          case sim::FaultKind::Drop:
            table_.reroute(req, {});
            break;
          case sim::FaultKind::Delay:
            ++relays_;
            below_.access(
                copyOf(req, {MemoryRouteKind::Relay, sinkId_, req}));
            return;
          case sim::FaultKind::Duplicate: {
            const RequestHandle phantom = copyOf(req, {});
            below_.access(req);
            below_.access(phantom);
            return;
          }
          case sim::FaultKind::None:
            break;
        }
        below_.access(req);
    }

    /** A relay came back: complete the original after the delay. */
    void
    memoryDone(const MemoryRoute &route) override
    {
        --relays_;
        eq_.scheduleIn(injector_.spec().delayTicks,
                       [this, req = route.tag] { table_.complete(req); });
    }

    std::size_t memoryInFlight() const override { return relays_; }

    const sim::FaultInjector &injector() const { return injector_; }

  private:
    /** A new request with every field of @p req, routed to @p route. */
    RequestHandle
    copyOf(RequestHandle req, MemoryRoute route)
    {
        const RequestHandle copy = table_.acquire(route);
        table_.at(copy) = table_.at(req);
        return copy;
    }

    sim::EventQueue &eq_;
    MemoryTable &table_;
    MemoryDevice &below_;
    std::uint16_t sinkId_;
    sim::FaultInjector injector_;
    std::size_t relays_ = 0;
};

} // namespace gpuwalk::mem

#endif // GPUWALK_MEM_FAULT_INJECTION_HH

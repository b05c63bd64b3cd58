/**
 * @file
 * Fault-injecting interposer for the TLB↔IOMMU port boundary.
 *
 * Wraps any TranslationService and misbehaves on the crossings a
 * FaultInjector selects. Used only by tests (directly, or through
 * SystemConfig::translationInterposer) to prove the conservation
 * auditor's invariants fire; see sim/fault_injector.hh.
 */

#ifndef GPUWALK_TLB_FAULT_INJECTION_HH
#define GPUWALK_TLB_FAULT_INJECTION_HH

#include <cstddef>
#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "tlb/translation.hh"

namespace gpuwalk::tlb {

/**
 * TranslationService decorator applying drop/delay/duplicate faults.
 *
 * - Drop: the request is forwarded with its route cleared — the IOMMU
 *   finishes the walk, the TLB never hears back. Merge entries,
 *   request slots and per-wavefront response accounting leak.
 * - Delay: a relay copy routed back here is forwarded instead; its
 *   completion re-delivers the original delayTicks later. A negative
 *   control: conservation is timing-independent, so a full run must
 *   still audit clean.
 * - Duplicate: a phantom copy of the request (no route) is forwarded
 *   after the real one, desynchronising the TLB-side and IOMMU-side
 *   request counters.
 */
class FaultyTranslationService final : public TranslationService,
                                       public TranslationSink
{
  public:
    FaultyTranslationService(sim::EventQueue &eq, TranslationTable &table,
                             TranslationService &below,
                             sim::FaultInjector::Spec spec)
        : eq_(eq), table_(table), below_(below),
          sinkId_(table.attach(*this)), injector_(spec)
    {}

    void
    translate(RequestHandle req) override
    {
        switch (injector_.decide()) {
          case sim::FaultKind::Drop:
            table_.reroute(req, {});
            break;
          case sim::FaultKind::Delay: {
            ++relays_;
            below_.translate(copyOf(
                req, {TranslationRouteKind::Relay, sinkId_, req}));
            return;
          }
          case sim::FaultKind::Duplicate: {
            const RequestHandle phantom = copyOf(req, {});
            below_.translate(req);
            below_.translate(phantom);
            return;
          }
          case sim::FaultKind::None:
            break;
        }
        below_.translate(req);
    }

    /** A relay came back: answer the original after the delay. */
    void
    translated(const TranslationRoute &route, mem::Addr pa_page,
               bool large_page) override
    {
        --relays_;
        eq_.scheduleIn(injector_.spec().delayTicks,
                       [this, req = route.tag, pa_page, large_page] {
                           table_.complete(req, pa_page, large_page);
                       });
    }

    std::size_t translationsInFlight() const override { return relays_; }

    const sim::FaultInjector &injector() const { return injector_; }

  private:
    /** A new request with every field of @p req, routed to @p route. */
    RequestHandle
    copyOf(RequestHandle req, TranslationRoute route)
    {
        const RequestHandle copy = table_.acquire(route);
        table_.at(copy) = table_.at(req);
        return copy;
    }

    sim::EventQueue &eq_;
    TranslationTable &table_;
    TranslationService &below_;
    std::uint16_t sinkId_;
    sim::FaultInjector injector_;
    std::size_t relays_ = 0;
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_FAULT_INJECTION_HH

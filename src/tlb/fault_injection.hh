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

#include <utility>

#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "tlb/translation.hh"

namespace gpuwalk::tlb {

/**
 * TranslationService decorator applying drop/delay/duplicate faults.
 *
 * - Drop: the request is forwarded with its completion callback
 *   swallowed — the IOMMU finishes the walk, the TLB never hears
 *   back. Merge entries and per-wavefront response accounting leak.
 * - Delay: the completion is re-delivered delayTicks later. A
 *   negative control: conservation is timing-independent, so a full
 *   run must still audit clean.
 * - Duplicate: a phantom copy of the request (no callback) is
 *   forwarded after the real one, desynchronising the TLB-side and
 *   IOMMU-side request counters.
 */
class FaultyTranslationService : public TranslationService
{
  public:
    FaultyTranslationService(sim::EventQueue &eq, TranslationService &below,
                             sim::FaultInjector::Spec spec)
        : eq_(eq), below_(below), injector_(spec)
    {}

    void
    translate(TranslationRequest req) override
    {
        switch (injector_.decide()) {
          case sim::FaultKind::Drop:
            req.onComplete = {};
            break;
          case sim::FaultKind::Delay: {
            auto inner = std::move(req.onComplete);
            req.onComplete = [this, cb = std::move(inner)](
                                 mem::Addr pa, bool large) mutable {
                eq_.scheduleIn(injector_.spec().delayTicks,
                               [cb = std::move(cb), pa, large]() mutable {
                                   cb(pa, large);
                               });
            };
            break;
          }
          case sim::FaultKind::Duplicate: {
            TranslationRequest phantom;
            phantom.vaPage = req.vaPage;
            phantom.instruction = req.instruction;
            phantom.wavefront = req.wavefront;
            phantom.cu = req.cu;
            below_.translate(std::move(req));
            below_.translate(std::move(phantom));
            return;
          }
          case sim::FaultKind::None:
            break;
        }
        below_.translate(std::move(req));
    }

    const sim::FaultInjector &injector() const { return injector_; }

  private:
    sim::EventQueue &eq_;
    TranslationService &below_;
    sim::FaultInjector injector_;
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_FAULT_INJECTION_HH

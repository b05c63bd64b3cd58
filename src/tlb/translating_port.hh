/**
 * @file
 * A translate-then-forward memory port: the substrate for virtual L1
 * caches (Yoon et al. [43], cited by the paper's related work).
 *
 * With virtually-indexed, virtually-tagged L1 data caches, address
 * translation is deferred until an L1 miss: hits never touch the TLB
 * hierarchy, which "filters" translation bandwidth. This port sits
 * between a virtually-addressed cache and the physically-addressed
 * rest of the memory system: every request that reaches it is
 * translated through the normal GPU TLB -> IOMMU path (carrying its
 * originating instruction's ID, so walk scheduling still sees
 * SIMT-correlated requests) and then forwarded at the physical
 * address.
 *
 * Functional caveat (documented, deliberate): synonym/homonym
 * handling of real virtual caches is out of scope — the model is
 * timing-only and workloads use a single address space.
 */

#ifndef GPUWALK_TLB_TRANSLATING_PORT_HH
#define GPUWALK_TLB_TRANSLATING_PORT_HH

#include "mem/request.hh"
#include "sim/stats.hh"
#include "tlb/tlb_hierarchy.hh"

namespace gpuwalk::tlb {

/**
 * Translates request addresses before forwarding downstream. Each
 * translation is routed back here (Port) tagged with the memory
 * request it translates, which then goes below at the physical
 * address under its own handle.
 */
class TranslatingPort final : public mem::MemoryDevice,
                              public TranslationSink
{
  public:
    /**
     * @param tlbs The GPU TLB hierarchy (translation path).
     * @param memory The table the forwarded requests live in.
     * @param below The physically-addressed next level.
     */
    TranslatingPort(TlbHierarchy &tlbs, mem::MemoryTable &memory,
                    mem::MemoryDevice &below)
        : tlbs_(tlbs), memory_(memory), below_(below),
          sinkId_(tlbs.table().attach(*this)), statGroup_("xlate_port")
    {
        statGroup_.add(requests_);
    }

    void
    access(mem::RequestHandle req) override
    {
        ++requests_;
        ++inFlight_;
        const mem::MemoryRequest &r = memory_.at(req);
        TranslationTable &table = tlbs_.table();
        const RequestHandle xlate =
            table.acquire({TranslationRouteKind::Port, sinkId_, req});
        TranslationRequest &x = table.at(xlate);
        x.vaPage = mem::pageAlign(r.addr);
        x.instruction = r.instruction;
        x.wavefront = r.wavefront;
        x.cu = r.cu;
        tlbs_.translate(xlate);
    }

    void
    translated(const TranslationRoute &route, mem::Addr pa_page,
               bool) override
    {
        --inFlight_;
        mem::MemoryRequest &r = memory_.at(route.tag);
        r.addr = pa_page | (r.addr & (mem::pageSize - 1));
        below_.access(route.tag);
    }

    std::size_t translationsInFlight() const override { return inFlight_; }

    std::uint64_t requests() const { return requests_.value(); }

    sim::StatGroup &stats() { return statGroup_; }

  private:
    TlbHierarchy &tlbs_;
    mem::MemoryTable &memory_;
    mem::MemoryDevice &below_;
    std::uint16_t sinkId_;
    std::size_t inFlight_ = 0;
    sim::StatGroup statGroup_;
    sim::Counter requests_{"requests", "L1-miss translations"};
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_TRANSLATING_PORT_HH

/**
 * @file
 * The address-translation request flowing from the GPU's coalescer
 * through the TLB hierarchy to the IOMMU.
 */

#ifndef GPUWALK_TLB_TRANSLATION_HH
#define GPUWALK_TLB_TRANSLATION_HH

#include <cstddef>
#include <cstdint>

#include "mem/types.hh"
#include "sim/request_table.hh"

namespace gpuwalk::tlb {

/** Identifies the SIMD instruction that generated a request. */
using InstructionId = std::uint64_t;

/**
 * Address-space identifier (ASID). Every translation structure tags
 * its entries with the originating context; an entry never hits
 * across contexts. Context 0 is the default address space every
 * single-tenant run uses — all ContextId plumbing is behaviour-neutral
 * when only context 0 exists.
 *
 * Defined at the tlb layer (the lowest layer that sees requests) and
 * aliased as core::ContextId / iommu::ContextId upstream.
 */
using ContextId = std::uint16_t;

/** The default address space of single-tenant runs. */
inline constexpr ContextId defaultContext = 0;

/** Distinct contexts a ContextId can name, context 0 included. */
inline constexpr std::size_t maxContexts = std::size_t{1} << 16;

/**
 * One page-granular translation request.
 *
 * The paper's scheduler keys on the instruction ID each request
 * carries (a 20-bit tag in hardware; modelled as a unique 64-bit ID
 * here). All requests of one SIMD instruction share that ID.
 *
 * Requests live in a TranslationTable slot and travel as its handle;
 * the slot's route says who hears the result.
 */
struct TranslationRequest
{
    /** Page-aligned virtual address to translate. */
    mem::Addr vaPage = 0;

    /** ID of the issuing SIMD instruction (shared by its siblings). */
    InstructionId instruction = 0;

    /** Issuing wavefront (global ID) — used by the L2 epoch metric. */
    std::uint32_t wavefront = 0;

    /** Issuing compute unit. */
    std::uint32_t cu = 0;

    /** Owning address space (ASID); 0 for single-tenant runs. */
    ContextId ctx = defaultContext;
};

/** A translation request's slot handle. */
using RequestHandle = sim::Handle;

/** Who a translation's result goes back to. */
enum class TranslationRouteKind : std::uint8_t
{
    None,    ///< nobody: prefetch walks and phantoms
    Cu,      ///< a CU; tag = instruction slot << 16 | page index
    L1Merge, ///< the TLB hierarchy; tag = L1 merge entry
    L2Merge, ///< the TLB hierarchy; tag = L2 merge entry
    Port,    ///< a virtual-cache TranslatingPort; tag = memory request
    Relay,   ///< a fault interposer; tag = the request it relays
};

using TranslationRoute = sim::Route<TranslationRouteKind>;

/** A component that issues translations and hears their results. */
class TranslationSink
{
  public:
    virtual ~TranslationSink() = default;

    /**
     * A request routed here completed with page-aligned (4 KB
     * granular) physical address @p pa_page; @p large_page when the
     * backing mapping is a 2 MB page. Its slot is already released.
     */
    virtual void translated(const TranslationRoute &route,
                            mem::Addr pa_page, bool large_page) = 0;

    /** Requests routed here still outstanding (slot audit). */
    virtual std::size_t translationsInFlight() const = 0;
};

/** Every in-flight translation request of one System. */
class TranslationTable
    : public sim::RequestTable<TranslationRequest, TranslationRouteKind,
                               TranslationSink>
{
  public:
    /** Final completion of @p req: frees its slot, tells its sink. */
    void
    complete(RequestHandle req, mem::Addr pa_page, bool large_page = false)
    {
        const TranslationRoute route = retire(req);
        if (route.sink != sim::noSink)
            sink(route.sink).translated(route, pa_page, large_page);
    }

    /** Registers the "tlb.request_slots" audit. */
    void
    registerInvariants(sim::Auditor &auditor)
    {
        registerInvariant(auditor, "tlb.request_slots",
                          &TranslationSink::translationsInFlight);
    }
};

/** Downstream consumer of TLB misses (the IOMMU). */
class TranslationService
{
  public:
    virtual ~TranslationService() = default;

    /** Accepts a request that missed the GPU TLB hierarchy. */
    virtual void translate(RequestHandle req) = 0;
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_TRANSLATION_HH

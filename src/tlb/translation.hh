/**
 * @file
 * The address-translation request flowing from the GPU's coalescer
 * through the TLB hierarchy to the IOMMU.
 */

#ifndef GPUWALK_TLB_TRANSLATION_HH
#define GPUWALK_TLB_TRANSLATION_HH

#include <cstdint>

#include "mem/types.hh"
#include "sim/inline_function.hh"
#include "sim/ticks.hh"

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

/**
 * One page-granular translation request.
 *
 * The paper's scheduler keys on the instruction ID each request
 * carries (a 20-bit tag in hardware; modelled as a unique 64-bit ID
 * here). All requests of one SIMD instruction share that ID.
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

    /**
     * Issued by a Wasp leader wavefront: if it reaches the IOMMU walk
     * path it is classed a speculative (low-priority) walk — the
     * lookahead a leader creates must never delay follower demand
     * walks. False outside --wavefront-sched=wasp.
     */
    bool leader = false;

    /**
     * Completion callback delivering the page-aligned (4 KB-granular)
     * physical address and whether the backing mapping is a 2 MB
     * large page. Invoked exactly once. Inline-stored for the hot
     * captures; oversized ones (the virtual-cache bridge) heap-box.
     */
    sim::InlineFunction<void(mem::Addr pa_page, bool large_page)>
        onComplete;

    void
    complete(mem::Addr pa_page, bool large_page = false)
    {
        if (onComplete) {
            auto cb = std::move(onComplete);
            cb(pa_page, large_page);
        }
    }
};

/** Downstream consumer of TLB misses (the IOMMU). */
class TranslationService
{
  public:
    virtual ~TranslationService() = default;

    /** Accepts a request that missed the GPU TLB hierarchy. */
    virtual void translate(TranslationRequest req) = 0;
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_TRANSLATION_HH

/**
 * @file
 * The GPU's two-level TLB hierarchy (paper §II-B).
 *
 * Per-CU private L1 TLBs back into a GPU-wide shared L2 TLB; L2 misses
 * are forwarded to the IOMMU (a TranslationService). In-flight misses
 * to the same page merge at both levels, like cache MSHRs. The shared
 * L2 also tracks the number of distinct wavefronts touching it per
 * fixed-size epoch — the paper's Figure 12 contention metric.
 */

#ifndef GPUWALK_TLB_TLB_HIERARCHY_HH
#define GPUWALK_TLB_TLB_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/slot_table.hh"
#include "sim/rate_limiter.hh"
#include "sim/stats.hh"
#include "tlb/set_assoc_tlb.hh"
#include "tlb/translation.hh"
#include "trace/trace.hh"

namespace gpuwalk::sim {
class Auditor;
} // namespace gpuwalk::sim

namespace gpuwalk::tlb {

/** Configuration of the GPU-side TLBs (Table I defaults). */
struct TlbHierarchyConfig
{
    unsigned numCus = 8;

    unsigned l1Entries = 32;         ///< fully associative per CU
    unsigned l2Entries = 512;
    unsigned l2Associativity = 16;

    sim::Tick l1Latency = 1 * 500;   ///< 1 GPU cycle
    sim::Tick l2Latency = 16 * 500;  ///< incl. on-chip interconnect

    /**
     * Lookup issue rate of each single-ported TLB (one per period).
     * These structural limits serialize each CU's request bursts and
     * multiplex the independent per-CU streams at the shared L2 — the
     * mechanism that interleaves walk requests from different
     * instructions (paper §III-B).
     */
    sim::Tick l1PortPeriod = 1 * 500;
    sim::Tick l2PortPeriod = 1 * 500;

    /** L2 accesses per epoch for the distinct-wavefront metric. */
    unsigned epochLength = 1024;
};

/**
 * Per-CU L1 TLBs + shared L2 TLB + miss path to the IOMMU.
 *
 * A miss that opens a merge entry sends its own request downstream,
 * routed back here (L1Merge / L2Merge) with the entry as its tag; the
 * fill answers every request merged into the entry.
 */
class TlbHierarchy final : public TranslationSink
{
  public:
    /**
     * @param table The table every translation request lives in.
     * @param iommu Where L2 misses go.
     */
    TlbHierarchy(sim::EventQueue &eq, const TlbHierarchyConfig &cfg,
                 TranslationTable &table, TranslationService &iommu);

    /** Entry point from a CU's coalescer. @pre the request's cu <
     *  numCus. */
    void translate(RequestHandle req);

    /** The table translation requests live in. */
    TranslationTable &table() { return table_; }

    /** An L1 or L2 miss request came back: fills its merge entry. */
    void translated(const TranslationRoute &route, mem::Addr pa_page,
                    bool large_page) override;

    /** One downstream request per open merge entry. */
    std::size_t
    translationsInFlight() const override
    {
        return l1Inflight_.size() + l2Inflight_.size();
    }

    /** Attaches a lifecycle tracer (nullptr = tracing off). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Registers this hierarchy's conservation invariants (merge-table
     * vs. pool accounting; per-wavefront coalesced-in == responses-out)
     * and enables the request/response accounting they check. Call
     * before the run starts.
     */
    void registerInvariants(sim::Auditor &auditor);

    SetAssocTlb &l1(unsigned cu) { return *l1s_.at(cu); }
    SetAssocTlb &l2() { return l2_; }

    /** Requests forwarded to the IOMMU (unmerged L2 misses). */
    std::uint64_t iommuRequests() const { return iommuRequests_.value(); }

    /** Average distinct wavefronts per L2 epoch (Fig. 12 metric). */
    double avgWavefrontsPerEpoch() const { return epochWavefronts_.mean(); }

    /** Completed epochs observed. */
    std::uint64_t epochs() const { return epochWavefronts_.count(); }

    /** Drops all cached translations (L1s and L2). */
    void invalidateAll();

    sim::StatGroup &stats() { return statGroup_; }

  private:
    /** Pooled miss-merge record (cache-MSHR analogue). Recycled with
     *  its vector capacity intact, so steady-state merging does not
     *  allocate. */
    struct MergeEntry
    {
        std::uint64_t key = 0; ///< its l1Key / l2Key
        std::vector<RequestHandle> waiters;
    };

    /** Packs (ctx, cu, vaPage) into one hash key: vaPage is
     *  page-aligned so the CU id fits in the low bits, and simulated
     *  virtual addresses stay below 2^48, leaving the top 16 bits for
     *  the context tag. */
    static std::uint64_t
    l1Key(ContextId ctx, std::uint32_t cu, mem::Addr va_page)
    {
        GPUWALK_ASSERT((va_page & (mem::pageSize - 1)) == 0
                           && cu < mem::pageSize
                           && va_page < (mem::Addr(1) << 48),
                       "cannot pack (ctx, cu, vaPage) key");
        return va_page | cu | (std::uint64_t(ctx) << 48);
    }

    /** Packs (ctx, vaPage) into the L2 miss-table key. */
    static std::uint64_t
    l2Key(ContextId ctx, mem::Addr va_page)
    {
        GPUWALK_ASSERT(va_page < (mem::Addr(1) << 48),
                       "cannot pack (ctx, vaPage) key");
        return va_page | (std::uint64_t(ctx) << 48);
    }

    void lookupL1(RequestHandle req);
    void accessL2(RequestHandle req);
    void noteL2Access(std::uint32_t wavefront);

    /** Opens a merge entry in @p inflight for @p first and sends a copy
     *  of it downstream routed back as @p kind. @return the copy. */
    RequestHandle openMerge(sim::FlatMap<std::uint64_t, sim::Handle> &inflight,
                            std::uint64_t key, RequestHandle first,
                            TranslationRouteKind kind);

    void fillL1(sim::Handle entry, mem::Addr pa_page, bool large);
    void fillL2(sim::Handle entry, mem::Addr pa_page, bool large);

    /** Completes a request that entered through translate(): the L1
     *  hit path and the L1-fill waiter loop, the only two places the
     *  hierarchy answers its callers. */
    void deliver(RequestHandle req, mem::Addr pa_page, bool large);

    sim::EventQueue &eq_;
    TlbHierarchyConfig cfg_;
    TranslationTable &table_;
    std::uint16_t sinkId_;
    TranslationService &iommu_;
    trace::Tracer *tracer_ = nullptr;

    std::vector<std::unique_ptr<SetAssocTlb>> l1s_;
    SetAssocTlb l2_;
    std::vector<std::unique_ptr<sim::RateLimiter>> l1Ports_;
    sim::RateLimiter l2Port_;

    // In-flight miss tables are looked up and erased, never iterated,
    // so hashing them is determinism-safe.

    /** In-flight L1 misses: l1Key(ctx, cu, vaPage) -> merge record. */
    sim::FlatMap<std::uint64_t, sim::Handle> l1Inflight_;

    /** In-flight L2 misses: l2Key(ctx, vaPage) -> merge record. */
    sim::FlatMap<std::uint64_t, sim::Handle> l2Inflight_;

    /** Shared slots behind both miss tables. */
    sim::SlotTable<MergeEntry> merges_;

    // Fig. 12 epoch tracking: a wavefront is counted once per epoch,
    // the first time its stamp is behind the current epoch number.
    std::vector<std::uint64_t> epochStamp_;
    std::uint64_t epoch_ = 1;
    unsigned epochDistinct_ = 0;
    unsigned epochAccesses_ = 0;

    /** Per-wavefront request/response tally for the conservation
     *  auditor. Only maintained once registerInvariants() has been
     *  called, so plain runs pay nothing. */
    struct WavefrontIo
    {
        std::uint64_t in = 0;  ///< requests coalesced in
        std::uint64_t out = 0; ///< responses delivered back
    };
    bool auditTracking_ = false;
    std::vector<WavefrontIo> wavefrontIo_;

    sim::StatGroup statGroup_;
    sim::Counter requests_{"requests", "translation requests received"};
    sim::Counter l1Merged_{"l1_merged", "requests merged at L1 miss"};
    sim::Counter l2Merged_{"l2_merged", "requests merged at L2 miss"};
    sim::Counter iommuRequests_{"iommu_requests",
                                "L2 misses forwarded to the IOMMU"};
    sim::Average epochWavefronts_{
        "epoch_wavefronts", "distinct wavefronts per L2 TLB epoch"};
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_TLB_HIERARCHY_HH

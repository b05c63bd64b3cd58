/**
 * @file
 * The IOMMU: the CPU-complex component servicing the GPU's address
 * translation requests (paper §II-B).
 *
 * Contains two small TLB levels, the page-walk request buffer, the
 * page walk caches, and a pool of independent page table walkers. The
 * pluggable WalkScheduler decides the service order of buffered
 * requests — the paper's entire contribution lives in that decision.
 *
 * Invariant: the walk buffer is non-empty only while every walker is
 * busy; a newly arriving request therefore starts walking immediately
 * whenever a walker is idle, exactly as in the paper ("the scheduler
 * plays no role and no scanning is involved" in that case). When the
 * buffer itself is full, requests wait in an overflow FIFO in strict
 * arrival order — the buffer capacity is the scheduler's lookahead
 * window (Fig. 14).
 */

#ifndef GPUWALK_IOMMU_IOMMU_HH
#define GPUWALK_IOMMU_IOMMU_HH

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/pending_walk.hh"
#include "core/walk_scheduler.hh"
#include "iommu/page_table_walker.hh"
#include "iommu/page_walk_cache.hh"
#include "iommu/prefetch/translation_prefetcher.hh"
#include "iommu/walk_metrics.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/request.hh"
#include "mem/types.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/rate_limiter.hh"
#include "sim/stats.hh"
#include "tlb/channel_port.hh"
#include "tlb/set_assoc_tlb.hh"
#include "tlb/translation.hh"

namespace gpuwalk::sim {
class Auditor;
} // namespace gpuwalk::sim

namespace gpuwalk::vm {
class Gmmu;
} // namespace gpuwalk::vm

namespace gpuwalk::iommu {

/**
 * How speculative walks — Wasp leader lookahead and prefetcher
 * predictions — are admitted into the walk path.
 */
enum class SpecAdmission : std::uint8_t
{
    /**
     * Prefetch predictions issue only into a fully idle walk path
     * (idle walker, empty buffer and overflow) — the strictly
     * idle-bandwidth gate of the original prefetcher. Leader walks
     * still buffer in the speculative class (they cannot be dropped)
     * and dispatch whenever no demand walk is eligible.
     */
    Idle,

    /**
     * The last specReservedWalkers walkers are reserved for
     * speculation: demand walks never dispatch onto them, so the
     * speculative class always owns that much walk bandwidth, and
     * predictions are buffered rather than dropped when the path is
     * busy.
     */
    Reserved,

    /**
     * Token budget: up to specBudgetTokens speculative admissions per
     * window of specBudgetWindow demand dispatches. Predictions are
     * buffered in the speculative class and dispatch only when no
     * demand walk is eligible (like Idle), but admission no longer
     * requires the whole path to be idle.
     */
    Budget,
};

/** Short lowercase name of @p a ("idle", "reserved", "budget"). */
const char *toString(SpecAdmission a);

/** Parses a --spec-admission value; fatal on unknown names. */
SpecAdmission specAdmissionFromString(const std::string &name);

/** Per-run speculative walk-class accounting. */
struct SpecSummary
{
    std::uint64_t admitted = 0;     ///< entries admitted to the class
    std::uint64_t dispatched = 0;   ///< dispatched as PickReason::Speculative
    std::uint64_t promoted = 0;     ///< leader walks promoted to demand
    std::uint64_t droppedStale = 0; ///< aged predictions cancelled unissued
    std::uint64_t leaderWalks = 0;  ///< leader-originated walk requests
};

/** IOMMU structure sizes and latencies (Table I defaults). */
struct IommuConfig
{
    unsigned l1TlbEntries = 32;    ///< fully associative
    unsigned l2TlbEntries = 256;
    unsigned l2TlbAssociativity = 16;

    unsigned bufferEntries = 256;  ///< walk-request buffer (Fig. 14)
    unsigned numWalkers = 8;       ///< page table walkers (Fig. 13)

    /** GPU -> IOMMU request travel time (off-chip hop). */
    sim::Tick hopLatency = 50 * 500;

    /** IOMMU TLB lookup time. */
    sim::Tick tlbLatency = 2 * 500;

    /** Front-end acceptance rate: one request per period. */
    sim::Tick frontPortPeriod = 1 * 500;

    PwcConfig pwc;

    /**
     * Route walker PTE fetches through a CPU-complex cache before
     * DRAM (as gem5's walker does). Page-table lines are hot — one
     * leaf PT page maps 2 MB — so this cache is what keeps walk
     * service latency in the tens-of-cycles range the paper's
     * latency figures imply.
     */
    /**
     * Translation prefetching (an extension beyond the paper, in the
     * spirit of its related-work TLB prefetchers [44]): after a
     * demand touch of page P, the configured policy (next-page or
     * SPP signature-path) proposes pages to walk speculatively into
     * idle walkers, filling the IOMMU TLBs. Strictly idle-bandwidth,
     * so demand traffic is never delayed.
     */
    PrefetchConfig prefetch;

    /** Speculative-walk admission policy (leader walks, prefetch). */
    SpecAdmission specAdmission = SpecAdmission::Idle;

    /** Reserved policy: walkers set aside for the speculative class
     *  (clamped so at least one walker always serves demand). */
    unsigned specReservedWalkers = 2;

    /** Budget policy: speculative admissions allowed per window. */
    unsigned specBudgetTokens = 4;

    /** Budget policy: window length, in demand dispatches. */
    unsigned specBudgetWindow = 32;

    /**
     * A speculative entry older than this (ticks) is acted on at the
     * next dispatch opportunity: a leader walk is *promoted* into the
     * demand class with a fresh sequence number (an instruction is
     * blocked on it — lookahead must not become starvation), while an
     * aged prefetch prediction is dropped as stale. 400 GPU cycles of
     * headroom by default.
     */
    sim::Tick specPromoteThreshold = 400 * 500;

    bool useWalkCache = true;
    mem::CacheConfig walkCache{"ptwcache", 1024 * 1024, 16,
                               mem::cacheLineSize, 40 * 500, 2 * 500,
                               64};
};

/** The IOMMU model; plugs into the GPU TLB hierarchy's miss path. */
class Iommu : public tlb::TranslationService
{
  public:
    /**
     * @param eq Event queue.
     * @param cfg Structure sizes/latencies.
     * @param scheduler The walk scheduling policy (owned).
     * @param memory Where walkers issue PTE reads (DRAM controller).
     * @param store Functional memory holding the page table bytes.
     * @param page_table_root Physical base of the PML4.
     */
    Iommu(sim::EventQueue &eq, const IommuConfig &cfg,
          std::unique_ptr<core::WalkScheduler> scheduler,
          mem::MemoryDevice &memory, mem::BackingStore &store,
          mem::Addr page_table_root);

    /**
     * Attaches the page-table root of a further address space
     * (tenant). The constructor registers @p page_table_root as
     * ContextId 0; every additional tenant must register before its
     * first translation arrives — walking an unregistered context is
     * fatal (see PageWalkCache::rootOf()).
     */
    void
    registerContext(ContextId ctx, mem::Addr root)
    {
        pwc_.registerContext(ctx, root);
    }

    /** Entry point for GPU L2 TLB misses. Pays the GPU→IOMMU hop
     *  latency internally (direct wiring; unit tests, interposers). */
    void translate(tlb::TranslationRequest req) override;

    /**
     * Entry point for requests arriving through the translate channel
     * (system::System's port wiring): the channel has already carried
     * the hop latency, so the request goes straight to the front port.
     */
    void deliverTranslate(tlb::TranslationRequest req);

    /**
     * Routes completed translations (IOMMU TLB hits and finished
     * walks) back through @p ch instead of completing them in place,
     * so the reply edge is counted by the channel. nullptr restores
     * direct completion.
     */
    void setReplyChannel(tlb::TranslationReplyChannel *ch)
    {
        replyChannel_ = ch;
    }

    /**
     * Attaches a lifecycle tracer to the walk path (this component and
     * every walker). nullptr detaches.
     */
    void setTracer(trace::Tracer *tracer);

    /**
     * Attaches the demand-paging GMMU. Walkers may then terminate at
     * non-present entries: the walk parks in a faulted list, the first
     * parker raises a far fault (later ones coalesce), and the GMMU's
     * service callback re-enters all parked walks into scheduling with
     * fresh sequence numbers. Every walk pins its page against
     * eviction from enqueue to completion. nullptr detaches.
     */
    void attachGmmu(vm::Gmmu *gmmu);

    const IommuConfig &config() const { return cfg_; }
    core::WalkScheduler &scheduler() { return *scheduler_; }
    PageWalkCache &pwc() { return pwc_; }
    WalkMetrics &metrics() { return metrics_; }
    const WalkMetrics &metrics() const { return metrics_; }
    tlb::SetAssocTlb &l1Tlb() { return l1Tlb_; }
    tlb::SetAssocTlb &l2Tlb() { return l2Tlb_; }

    /** The walker-side cache, or nullptr when disabled. */
    mem::Cache *walkCache() { return walkCache_.get(); }

    /**
     * Registers this IOMMU's conservation invariants: walk/request
     * counter identities, buffer+overflow drain, walker occupancy, and
     * the buffered seq/bypassed consistency rules. Call before the run
     * starts.
     */
    void registerInvariants(sim::Auditor &auditor);

    /** Translation requests received from the GPU TLB hierarchy. */
    std::uint64_t requests() const { return requests_.value(); }

    /** Requests that hit in the IOMMU's own TLBs. */
    std::uint64_t tlbHits() const { return tlbHits_.value(); }

    /** Requests that entered the walk path (missed both IOMMU TLBs). */
    std::uint64_t walkRequests() const { return walkRequests_.value(); }

    /** Walks completed. */
    std::uint64_t walksCompleted() const
    {
        return walksCompleted_.value();
    }

    /** Speculative translation walks issued. */
    std::uint64_t prefetches() const { return prefetches_.value(); }

    /** The active prediction policy, or nullptr when prefetch is off. */
    TranslationPrefetcher *prefetcher() { return prefetcher_.get(); }

    /** Per-run prefetcher accounting (enabled=false when off). */
    PrefetchSummary prefetchSummary() const;

    /** Per-run speculative-class accounting. */
    SpecSummary
    specSummary() const
    {
        SpecSummary s;
        s.admitted = specAdmitted_.value();
        s.dispatched = specDispatched_.value();
        s.promoted = specPromoted_.value();
        s.droppedStale = specDroppedStale_.value();
        s.leaderWalks = leaderWalks_.value();
        return s;
    }

    /** Entries currently waiting in the speculative class. */
    std::size_t specQueued() const { return buffer_.specCount(); }

    /**
     * Distinct (ctx, page) walks currently in flight — buffered,
     * overflowed, walking, or parked on a fault. Test accessor for
     * the prefetch dedup filter.
     */
    std::uint64_t
    inflightForPage(ContextId ctx, mem::Addr va_page) const
    {
        const auto it = inflight_.find(mem::pageCtxKey(ctx, va_page));
        return it == inflight_.end() ? 0 : it->second;
    }

    /** Requests that waited in the overflow FIFO. */
    std::uint64_t overflowed() const { return overflowed_.value(); }

    /** Walks currently parked on unserviced far faults. */
    std::uint64_t faultedWalks() const { return faultedParked_; }

    /** Per-tenant walk-path accounting (demand walks only). */
    struct TenantCounters
    {
        std::uint64_t walkRequests = 0;   ///< demand walks enqueued
        std::uint64_t walksCompleted = 0; ///< demand walks finished
        std::uint64_t dispatches = 0;     ///< scheduler-mediated picks
        std::uint64_t queueWaitTicks = 0; ///< cumulative buffer wait
        std::uint64_t serviceTicks = 0;   ///< cumulative walker service

        /** Demand walks currently buffered, overflowed, or walking. */
        std::uint64_t inflight() const
        {
            return walkRequests - walksCompleted;
        }
    };

    /**
     * Counters of tenant @p ctx (zero-initialised if it never sent a
     * walk). Indexed by ContextId; see tenantLimit().
     */
    const TenantCounters &
    tenantCounters(ContextId ctx) const
    {
        static const TenantCounters zero{};
        return ctx < tenants_.size() ? tenants_[ctx] : zero;
    }

    /** One past the highest ContextId that ever sent a walk. */
    std::size_t tenantLimit() const { return tenants_.size(); }

    /** Tenant @p ctx's current walk-buffer occupancy. */
    std::size_t
    tenantBufferOccupancy(ContextId ctx) const
    {
        return buffer_.contextCount(ctx);
    }

    /** Bucketed queue-wait / walker-service / per-level breakdown. */
    LatencyBreakdownSummary latencySummary() const;

    /** Walks currently buffered, overflowed, in a walker, or parked
     *  on an unserviced far fault. */
    std::uint64_t
    inflightWalks() const
    {
        std::uint64_t busy = 0;
        for (const auto &w : walkers_)
            busy += w->busy() ? 1 : 0;
        return buffer_.size() + buffer_.specCount() + overflow_.size()
               + busy + faultedParked_;
    }

    sim::StatGroup &stats() { return statGroup_; }

  private:
    void lookupTlbs(tlb::TranslationRequest req);
    void respond(tlb::TranslationRequest req, mem::Addr pa_page,
                 bool large_page, sim::Tick delay);
    void enqueueWalk(tlb::TranslationRequest req);
    void maybePrefetch(mem::Addr touched_va_page, ContextId ctx,
                       std::uint32_t wavefront, bool leader);
    void noteInflight(ContextId ctx, mem::Addr va_page);
    void releaseInflight(ContextId ctx, mem::Addr va_page);
    TenantCounters &tenantSlot(ContextId ctx);
    void admitToBuffer(core::PendingWalk walk);
    void admitSpeculative(core::PendingWalk walk);
    void promoteAgedSpec();
    void dispatchIfPossible();
    void dispatchSpec(PageTableWalker &walker);
    void dispatchTo(PageTableWalker &walker, core::PendingWalk walk,
                    core::PickReason reason);
    void onWalkDone(WalkResult result);
    void handleFaultedWalk(WalkResult result);
    void onFaultServiced(ContextId ctx, mem::Addr va_page);
    void reenterWalk(core::PendingWalk walk);
    PageTableWalker *idleWalker();

    /** Walkers the demand class may dispatch onto: [0, this). */
    unsigned demandWalkerLimit() const;

    /** First idle walker the demand class may use, or nullptr. */
    PageTableWalker *idleDemandWalker();

    /**
     * First idle walker the speculative class may use right now, or
     * nullptr: reserved walkers always qualify; the others only while
     * no demand walk is waiting (speculation never delays demand).
     */
    PageTableWalker *idleSpecWalker();

    sim::EventQueue &eq_;
    IommuConfig cfg_;
    std::unique_ptr<core::WalkScheduler> scheduler_;
    mem::BackingStore &store_;

    sim::RateLimiter frontPort_;
    std::unique_ptr<mem::Cache> walkCache_;
    tlb::SetAssocTlb l1Tlb_;
    tlb::SetAssocTlb l2Tlb_;
    PageWalkCache pwc_;
    mem::Addr pageTableRoot_ = 0;
    core::WalkBuffer buffer_;
    std::deque<core::PendingWalk> overflow_;

    /** Walks parked on an unserviced far fault, keyed by the page
     *  (page-aligned VA | ctx). One raise per key; later walks for the
     *  same page coalesce onto the list. */
    struct FaultedEntry
    {
        std::vector<core::PendingWalk> walks;
        sim::Tick raised = 0;
    };
    vm::Gmmu *gmmu_ = nullptr;
    std::map<std::uint64_t, FaultedEntry> faulted_;
    std::uint64_t faultedParked_ = 0;

    /**
     * In-flight walk counts keyed by mem::pageCtxKey(ctx, page): every
     * walk (demand or prefetch) counts from enqueue/issue until its
     * non-faulted completion, including the time it is parked on a
     * fault. The prefetch issue path consults this so an idle walker
     * never starts a speculative walk for a page another walker — or
     * the buffer — already owns.
     */
    sim::FlatMap<std::uint64_t, std::uint32_t> inflight_;

    /** The active prediction policy (nullptr = prefetch off). */
    std::unique_ptr<TranslationPrefetcher> prefetcher_;

    /** Scratch candidate list (reused across triggers). */
    std::vector<PrefetchCandidate> candidates_;

    /**
     * Keys of pages whose IOMMU TLB entries were filled by a completed
     * prefetch and not yet touched by demand. A demand TLB hit on a
     * member counts it useful; a demand *walk* for a member means the
     * entry was evicted before use (pollution, the wasted-work case);
     * members surviving the run were never demanded at all.
     */
    sim::FlatMap<std::uint64_t, bool> prefetchedUntouched_;

    /** Per-tenant accounting, indexed by ContextId (grown lazily; a
     *  single-tenant run only ever touches slot 0). */
    std::vector<TenantCounters> tenants_;
    std::vector<std::unique_ptr<PageTableWalker>> walkers_;
    WalkMetrics metrics_;
    std::uint64_t nextSeq_ = 0;

    // Budget admission state: tokens left in the current window, and
    // demand dispatches seen since the window opened.
    unsigned specTokens_ = 0;
    unsigned specWindowCount_ = 0;
    trace::Tracer *tracer_ = nullptr;
    tlb::TranslationReplyChannel *replyChannel_ = nullptr;

    sim::StatGroup statGroup_;
    sim::Counter requests_{"requests", "translation requests received"};
    sim::Counter tlbHits_{"tlb_hits", "hits in the IOMMU's own TLBs"};
    sim::Counter walkRequests_{"walk_requests",
                               "requests that required a page walk"};
    sim::Counter walksCompleted_{"walks_completed",
                                 "page walks finished"};
    sim::Counter overflowed_{"overflowed",
                             "requests that waited in the overflow FIFO"};
    sim::Counter prefetches_{"prefetches",
                             "speculative translation walks issued"};
    sim::Counter prefetchCompleted_{
        "prefetch_completed", "speculative walks that filled the TLBs"};
    sim::Counter prefetchUseful_{
        "prefetch_useful", "demand TLB hits on prefetched entries"};
    sim::Counter prefetchEvictedUnused_{
        "prefetch_evicted_unused",
        "prefetched pages demand-walked again after TLB eviction"};
    sim::Counter specAdmitted_{
        "spec_admitted", "walks admitted to the speculative class"};
    sim::Counter specDispatched_{
        "spec_dispatched", "speculative-class walks dispatched"};
    sim::Counter specPromoted_{
        "spec_promoted", "leader walks promoted to demand priority"};
    sim::Counter specDroppedStale_{
        "spec_dropped_stale",
        "aged prefetch predictions cancelled before dispatch"};
    sim::Counter leaderWalks_{
        "leader_walks", "walk requests from Wasp leader wavefronts"};
    sim::Average bufferOccupancy_{"buffer_occupancy",
                                  "walk-buffer depth at arrival"};
    sim::Average walkLatency_{"walk_latency",
                              "walk-path latency, arrival->done (ticks)"};
    sim::Average walkAccessesAvg_{"walk_accesses",
                                  "memory accesses per walk"};

    // Latency breakdown: the two scheduler-controlled hand-off points
    // plus the per-level memory time inside walker service.
    sim::StatGroup latencyGroup_{"latency"};
    sim::Histogram queueWaitHist_{
        "queue_wait", "buffer wait, arrival->dispatch (ticks)",
        latencyBucketBounds()};
    sim::Histogram walkerServiceHist_{
        "walker_service", "walker service, dispatch->done (ticks)",
        latencyBucketBounds()};
    std::array<sim::Histogram, vm::numPtLevels> levelMemHist_{{
        {"mem_l1", "level-1 (PT) PTE fetch latency (ticks)",
         latencyBucketBounds()},
        {"mem_l2", "level-2 (PD) PTE fetch latency (ticks)",
         latencyBucketBounds()},
        {"mem_l3", "level-3 (PDPT) PTE fetch latency (ticks)",
         latencyBucketBounds()},
        {"mem_l4", "level-4 (PML4) PTE fetch latency (ticks)",
         latencyBucketBounds()},
    }};
    sim::Average queueWaitAvg_{"queue_wait_avg",
                               "mean buffer wait (ticks)"};
    sim::Average walkerServiceAvg_{"walker_service_avg",
                                   "mean walker service (ticks)"};
    std::array<sim::Average, vm::numPtLevels> levelMemAvg_{{
        {"mem_l1_avg", "mean level-1 fetch latency (ticks)"},
        {"mem_l2_avg", "mean level-2 fetch latency (ticks)"},
        {"mem_l3_avg", "mean level-3 fetch latency (ticks)"},
        {"mem_l4_avg", "mean level-4 fetch latency (ticks)"},
    }};
};

} // namespace gpuwalk::iommu

#endif // GPUWALK_IOMMU_IOMMU_HH

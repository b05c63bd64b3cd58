/**
 * @file
 * GPU memory management unit: far faults, migration, oversubscription.
 *
 * Under demand paging, workload pages start non-present and a page
 * table walk that reaches a non-present entry raises a far fault (the
 * terminology of the CPU-side IOMMU literature: the faulting agent is
 * far from the OS that can repair the mapping). The Gmmu models the
 * repair path: a host-interrupt + runtime cost paid once per batch of
 * faults, a per-page migration cost over the CPU-GPU link, and — once
 * an oversubscription ratio caps the resident frame count — LRU or
 * random eviction of victim pages back to the host.
 *
 * Allocation is Mosaic-style contiguity-aware: the first fault in a
 * 2 MB virtual range opportunistically reserves a 2 MB-aligned block
 * of physical frames (scattered 4 KB frames when no block is free),
 * later faults in the range land at their natural offsets, and a
 * fully-resident range is promoted to a single PS-bit PD-level
 * mapping (demoted again before any of its pages is evicted).
 * Because the promoted translation equals the per-page translations,
 * promotion changes walk timing (one fewer level) without changing
 * the translation function.
 *
 * The Gmmu never touches IOMMU types: the IOMMU attaches callbacks
 * for fault-service completion and eviction notification, and refers
 * to address spaces by the same numeric context id it uses for ASIDs.
 */

#ifndef GPUWALK_VM_GMMU_HH
#define GPUWALK_VM_GMMU_HH

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "mem/backing_store.hh"
#include "sim/audit.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "vm/address_space.hh"

namespace gpuwalk::vm {

/** Victim selection once the resident-frame cap is hit. */
enum class EvictPolicy : std::uint8_t
{
    Lru,
    Random, ///< seeded; deterministic across runs
};

const char *toString(EvictPolicy policy);

/** Gmmu configuration (surfaced as --oversubscription etc.). */
struct GmmuConfig
{
    bool enabled = false;

    /** Resident-frame cap as a fraction of the workload footprint;
     *  1.0 = everything fits (but still demand-faults in). */
    double oversubscription = 1.0;

    /** Host interrupt + runtime handling cost, paid once per service
     *  batch (ticks). */
    sim::Tick faultLatency = 2'000'000;

    /** Per-page transfer cost over the CPU-GPU link (ticks). */
    sim::Tick migrationLatency = 400'000;

    /** Max faults serviced per host round trip; a batch takes the
     *  oldest pending faults in raise order. */
    unsigned batchSize = 8;

    EvictPolicy evict = EvictPolicy::Lru;

    /** Seed for EvictPolicy::Random victim selection. */
    std::uint64_t evictSeed = 12345;
};

/** Bucket bounds (ticks) of the fault service latency histogram. */
const std::vector<std::uint64_t> &faultLatencyBucketBounds();

/** Snapshot of Gmmu counters for RunStats / report JSON. */
struct GmmuSummary
{
    bool enabled = false;
    std::uint64_t frameCap = 0;
    std::uint64_t residentPeak = 0;
    std::uint64_t residentFinal = 0;
    std::uint64_t faultsRaised = 0;
    std::uint64_t faultsServiced = 0;
    std::uint64_t faultsCoalesced = 0;
    std::uint64_t batches = 0;
    std::uint64_t pagesMigrated = 0;
    std::uint64_t pagesEvicted = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t serviceRetries = 0;
    std::uint64_t pinnedEvictions = 0;

    /** Raise-to-service latency distribution
     *  (bounds from faultLatencyBucketBounds()). */
    std::vector<std::uint64_t> latencyBucketCounts;
    std::uint64_t latencySamples = 0;
    double latencyAvg = 0.0;
};

/** Far-fault servicing, migration and eviction engine. */
class Gmmu
{
  public:
    /** Numeric ASID; mirrors tlb::ContextId without the dependency. */
    using ContextId = std::uint16_t;

    /** Notifies the IOMMU that the fault for (ctx, page) is repaired. */
    using ServiceCallback = std::function<void(ContextId, mem::Addr)>;

    /** Notifies the IOMMU that (ctx, page) was evicted (TLB shootdown). */
    using EvictCallback = std::function<void(ContextId, mem::Addr)>;

    /** Targeted faults for audit-coverage tests (tests/test_audit.cc):
     *  each breaks exactly one registered invariant. */
    struct TestFaults
    {
        /** Lose the first fault-service completion: the page is mapped
         *  but the fault is forgotten (breaks gmmu.fault_conservation,
         *  and the IOMMU's parked walks never release). */
        bool dropFirstService = false;
        /** Forget frame bookkeeping on eviction
         *  (breaks gmmu.frame_accounting). */
        bool leakFrameOnEvict = false;
        /** Prefer pinned pages as eviction victims
         *  (breaks gmmu.no_pinned_eviction). */
        bool evictPinned = false;
    };

    /**
     * @param eq Event queue the Gmmu schedules on.
     * @param cfg Knobs (latencies, batch size, eviction policy).
     * @param frames Physical allocator shared with the page tables.
     * @param store Functional memory (evicted frames are saved to a
     *        host-side copy and scrubbed, so content round-trips).
     */
    Gmmu(sim::EventQueue &eq, const GmmuConfig &cfg,
         FrameAllocator &frames, mem::BackingStore &store);

    /** Registers the address space faults for @p ctx repair into. */
    void registerSpace(ContextId ctx, AddressSpace &space);

    /** Caps resident frames (pages); defaults to unlimited. */
    void setFrameCap(std::uint64_t cap);
    std::uint64_t frameCap() const { return frameCap_; }

    void setServiceCallback(ServiceCallback cb);
    void setEvictCallback(EvictCallback cb);
    void setTestFaults(TestFaults faults) { testFaults_ = faults; }

    /**
     * Raises a far fault for non-resident page @p va_page of @p ctx.
     * The caller coalesces: at most one raise per (ctx, page) may be
     * outstanding; further walks join via noteWaiter().
     */
    void raiseFault(ContextId ctx, mem::Addr va_page);

    /** Another walk parked behind an already-raised fault. Batches
     *  drain in raise order, so the walk is only counted
     *  (faults_coalesced). */
    void noteWaiter() { ++faultsCoalesced_; }

    /** Pins @p va_page against eviction while a walk is in flight.
     *  Pins nest and apply to non-resident pages too (the page stays
     *  pinned through its fault service). */
    void pin(ContextId ctx, mem::Addr va_page);
    void unpin(ContextId ctx, mem::Addr va_page);

    /** LRU touch at walk completion. */
    void touch(ContextId ctx, mem::Addr va_page);

    bool isResident(ContextId ctx, mem::Addr va_page) const;

    std::uint64_t residentPages() const { return residentMap_.size(); }
    std::uint64_t residentPeak() const { return residentPeak_; }
    std::uint64_t pendingFaults() const { return pending_.size(); }
    std::uint64_t faultsRaised() const { return faultsRaised_; }
    std::uint64_t faultsServiced() const { return faultsServiced_; }
    std::uint64_t faultsCoalesced() const { return faultsCoalesced_; }
    std::uint64_t pagesEvicted() const { return pagesEvicted_; }
    std::uint64_t promotions() const { return promotions_; }
    std::uint64_t demotions() const { return demotions_; }
    std::uint64_t pinnedPages() const { return pins_.size(); }

    /**
     * Registers the Gmmu's conservation invariants:
     *  - gmmu.fault_conservation: raised == serviced + pending
     *    (final: pending == 0)
     *  - gmmu.residency_cap: resident pages <= frame cap
     *  - gmmu.no_pinned_eviction: no page with an in-flight walk was
     *    ever evicted (final: no pins survive the drain)
     *  - gmmu.frame_accounting: resident counters, LRU list, victim
     *    index and free list agree
     */
    void registerInvariants(sim::Auditor &auditor);

    GmmuSummary summarize() const;

  private:
    /** (ctx, page) key: mem::pageCtxKey — page number in the high
     *  bits, the full 16-bit ctx in the low 16. The previous
     *  va_page | ctx packing aliased ASIDs >= 4096 into VA bit 12+,
     *  silently sharing residency/pin/fault state across tenants. */
    static std::uint64_t
    keyOf(ContextId ctx, mem::Addr va_page)
    {
        GPUWALK_ASSERT((va_page & (mem::pageSize - 1)) == 0,
                       "unaligned fault page ", va_page);
        return mem::pageCtxKey(ctx, va_page);
    }
    static ContextId
    ctxOf(std::uint64_t key)
    {
        return mem::ctxOfKey(key);
    }
    static mem::Addr
    pageOf(std::uint64_t key)
    {
        return mem::pageOfKey(key);
    }
    /** (ctx, 2 MB range) key, same encoding at 2 MB granularity. */
    static std::uint64_t
    regionKeyOf(ContextId ctx, mem::Addr va_page)
    {
        return mem::pageCtxKey(ctx, va_page & ~largePageMask);
    }

    struct PendingFault
    {
        std::uint64_t key = 0;
        sim::Tick raised = 0;
        bool inService = false;
    };

    struct ResidentInfo
    {
        mem::Addr pa = 0;
        std::list<std::uint64_t>::iterator lruIt;
        std::size_t denseIdx = 0;
        bool fromBlock = false; ///< placed in a 2 MB contiguity block
    };

    /** One 2 MB virtual range's contiguity reservation. */
    struct RegionInfo
    {
        bool tried = false;     ///< reservation attempted
        mem::Addr base2M = 0;   ///< 0 = no block (fallback to 4 KB)
        std::uint64_t resident = 0;
        bool promoted = false;
        std::uint64_t savedPdEntry = 0;
    };

    PageTable &pageTableOf(ContextId ctx);

    bool pinned(std::uint64_t key) const { return pins_.count(key) != 0; }

    void maybeStartBatch();
    void beginBatch();
    void serviceNext();
    void completeFront();

    /** Evicts until a frame is available; false if every resident
     *  page is pinned (caller retries after pins drain). */
    bool ensureCapacity();
    std::optional<std::uint64_t> pickVictim();
    void evict(std::uint64_t key);

    /** Maps the faulted page, restoring saved content. */
    void placePage(std::uint64_t key);

    sim::EventQueue &eq_;
    GmmuConfig cfg_;
    FrameAllocator &frames_;
    mem::BackingStore &store_;
    std::vector<AddressSpace *> spaces_;

    ServiceCallback serviceCallback_;
    EvictCallback evictCallback_;
    TestFaults testFaults_;
    bool droppedOne_ = false;

    std::uint64_t frameCap_ = ~std::uint64_t(0);

    std::vector<PendingFault> pending_; ///< raise order
    bool busy_ = false;                ///< a batch is in service
    std::vector<std::uint64_t> batch_; ///< keys of the current batch
    std::size_t batchPos_ = 0;

    std::map<std::uint64_t, ResidentInfo> residentMap_;
    std::list<std::uint64_t> lru_;          ///< front = coldest
    std::vector<std::uint64_t> denseKeys_;  ///< random-victim index
    std::map<std::uint64_t, std::uint32_t> pins_;
    std::map<std::uint64_t, RegionInfo> regions_;
    std::map<std::uint64_t, std::vector<std::uint64_t>> hostCopy_;
    std::vector<mem::Addr> freeFrames_; ///< recycled 4 KB frames
    sim::Rng rng_;

    std::uint64_t residentPages_ = 0; ///< mirrors residentMap_.size()
    std::uint64_t resident4k_ = 0;    ///< resident via 4 KB frames
    std::uint64_t frames4kTaken_ = 0; ///< 4 KB frames from the bump pool
    std::uint64_t residentPeak_ = 0;
    std::uint64_t faultsRaised_ = 0;
    std::uint64_t faultsServiced_ = 0;
    std::uint64_t faultsCoalesced_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t pagesMigrated_ = 0;
    std::uint64_t pagesEvicted_ = 0;
    std::uint64_t promotions_ = 0;
    std::uint64_t demotions_ = 0;
    std::uint64_t serviceRetries_ = 0;
    std::uint64_t pinnedEvictions_ = 0;

    sim::Histogram latencyHist_;
    sim::Average latencyAvg_;
};

} // namespace gpuwalk::vm

#endif // GPUWALK_VM_GMMU_HH

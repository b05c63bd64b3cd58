/**
 * @file
 * A hardware page table walker.
 *
 * Walks the in-memory x86-64 page table one level at a time: each
 * level is a dependent (sequential) memory read of the PTE word,
 * issued to the DRAM controller, followed by a functional decode of
 * the real entry bytes from the BackingStore. Upper-level entries are
 * installed into the PWCs as they are read. The IOMMU owns a pool of
 * these (8 in the baseline, 16 in the Fig. 13 sensitivity sweeps).
 */

#ifndef GPUWALK_IOMMU_PAGE_TABLE_WALKER_HH
#define GPUWALK_IOMMU_PAGE_TABLE_WALKER_HH

#include <array>
#include <cstdint>

#include "core/pending_walk.hh"
#include "iommu/page_walk_cache.hh"
#include "mem/backing_store.hh"
#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "tlb/translation.hh"
#include "trace/trace.hh"

namespace gpuwalk::iommu {

/** Result of a finished walk, reported back to the IOMMU. */
struct WalkResult
{
    core::PendingWalk walk;
    mem::Addr paPage = 0;       ///< page-aligned translation result
    bool largePage = false;     ///< backed by a 2 MB (PS-bit) mapping
    unsigned memAccesses = 0;   ///< actual accesses performed (1-4)
    unsigned walkerId = 0;      ///< walker that performed the walk
    sim::Tick started = 0;      ///< dispatch time
    sim::Tick finished = 0;     ///< completion time

    /** The walk reached a non-present entry (far fault): paPage is
     *  meaningless and the walk must park until the fault is
     *  serviced. Only possible when the walker allowFaults(). */
    bool faulted = false;
    unsigned faultLevel = 0;    ///< non-present level (4..1)

    /** Memory latency of each level's PTE read; index = level - 1,
     *  0 for levels the walk skipped (PWC hit / 2 MB leaf). */
    std::array<sim::Tick, vm::numPtLevels> levelTicks{};
};

/** Who a walker reports finished (or faulted) walks to: the IOMMU. */
class WalkOwner
{
  public:
    virtual ~WalkOwner() = default;

    /** The walker is idle again; @p result may restart it at once. */
    virtual void walkDone(WalkResult &result) = 0;
};

/**
 * One independent walker; busy while a walk is in flight. Each PTE
 * read is a memory request routed back here (Walker, tag = walker
 * id); a busy walker always has exactly one read outstanding.
 */
class PageTableWalker final : public mem::MemorySink
{
  public:
    /**
     * @param eq Event queue.
     * @param translations The table the walked requests live in.
     * @param requests The table PTE reads live in.
     * @param memory Where PTE reads are issued (the DRAM controller).
     * @param store Functional memory holding real PTE bytes.
     * @param pwc Shared page walk caches.
     * @param owner Told when each walk finishes.
     * @param id This walker's index in the IOMMU pool (for tracing).
     */
    PageTableWalker(sim::EventQueue &eq, tlb::TranslationTable &translations,
                    mem::MemoryTable &requests, mem::MemoryDevice &memory,
                    mem::BackingStore &store, PageWalkCache &pwc,
                    WalkOwner &owner, unsigned id = 0)
        : eq_(eq), translations_(translations), requests_(requests),
          sinkId_(requests.attach(*this)), memory_(memory), store_(store),
          pwc_(pwc), owner_(owner), id_(id)
    {}

    bool busy() const { return busy_; }

    /** Pool index of this walker. */
    unsigned id() const { return id_; }

    /** Attaches a lifecycle tracer (nullptr = tracing off). */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Demand paging: a non-present entry produces a faulted WalkResult
     * instead of being a fatal modeling error. Off by default — fully
     * resident runs treat a non-present entry as a bug.
     */
    void allowFaults(bool on) { faultsAllowed_ = on; }

    /** Total walks completed by this walker. */
    std::uint64_t walksDone() const { return walksDone_; }

    /**
     * Begins walking for @p walk. The PWC is consulted once here
     * (paper action 2-b), then 1-4 dependent memory reads follow. The
     * owner's walkDone() fires at completion with the result.
     * @pre !busy()
     */
    void start(const core::PendingWalk &walk);

    /** The outstanding PTE read returned. */
    void memoryDone(const mem::MemoryRoute &route) override;

    std::size_t memoryInFlight() const override { return busy_ ? 1 : 0; }

  private:
    void step();
    void finish(mem::Addr pa_page, bool large_page);
    void fault();

    /** Emits a MemIssued / MemCompleted trace event for the read. */
    void traceMem(trace::EventKind kind, std::uint64_t arg0);

    sim::EventQueue &eq_;
    tlb::TranslationTable &translations_;
    mem::MemoryTable &requests_;
    std::uint16_t sinkId_;
    mem::MemoryDevice &memory_;
    mem::BackingStore &store_;
    PageWalkCache &pwc_;
    WalkOwner &owner_;
    unsigned id_ = 0;
    trace::Tracer *tracer_ = nullptr;
    bool faultsAllowed_ = false;

    bool busy_ = false;
    core::PendingWalk current_{};
    mem::Addr va_ = 0;          ///< page being walked
    std::uint32_t wavefront_ = 0;
    unsigned level_ = 0;        ///< level about to be read (4..1)
    mem::Addr table_ = 0;       ///< physical base of that level's table
    mem::Addr slot_ = 0;        ///< PTE address of the outstanding read
    sim::Tick issued_ = 0;      ///< when the outstanding read went out
    unsigned accesses_ = 0;
    sim::Tick started_ = 0;
    std::array<sim::Tick, vm::numPtLevels> levelTicks_{};
    std::uint64_t walksDone_ = 0;
};

} // namespace gpuwalk::iommu

#endif // GPUWALK_IOMMU_PAGE_TABLE_WALKER_HH

/**
 * @file
 * Walk-lifecycle event tracing.
 *
 * Records each page walk's lifecycle as timestamped events — coalesced
 * at the GPU TLB, enqueued at the IOMMU, scored (PWC probe result and
 * estimated job length), scheduled onto a walker, each per-level PTE
 * fetch issued/completed, and walk completion — keyed by
 * (instruction ID, wavefront, VA page). The paper's headline claims
 * are all *ordering* claims; this subsystem is what lets a test assert
 * them directly instead of inferring them from end-of-run aggregates.
 *
 * Zero overhead when disabled: components hold a `Tracer *` that is
 * nullptr unless tracing was requested, so every instrumentation site
 * costs one predictable branch. When enabled, events land in a
 * bounded in-memory ring buffer (oldest dropped first); sinks —
 * the Chrome trace_event exporter (chrome_export.hh) and the FNV-1a
 * golden-trace digest (digest.hh) — consume the retained window.
 */

#ifndef GPUWALK_TRACE_TRACE_HH
#define GPUWALK_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace gpuwalk::trace {

/** Lifecycle stages of one page walk, in span-nesting order. */
enum class EventKind : std::uint8_t
{
    /** Translation request entered the GPU TLB hierarchy (the
     *  coalescer's product; most of these hit a TLB and never walk). */
    Coalesced = 0,

    /** Request missed every TLB and entered the IOMMU walk path.
     *  arg0 = walk-buffer depth at arrival. */
    Enqueued,

    /** Arrival-time scoring probe (paper action 1-a/1-b).
     *  arg0 = this walk's PWC estimate (1-4), arg1 = the instruction's
     *  accumulated job-length score after folding it in. */
    Scored,

    /** Dispatched onto a walker. walker = walker index, arg0 = the
     *  core::PickReason that selected it, arg1 = queue wait (ticks). */
    Scheduled,

    /** One per-level PTE fetch issued. level = PT level (4..1),
     *  arg0 = physical PTE slot address. */
    MemIssued,

    /** That fetch completed. level = PT level, arg0 = latency
     *  (ticks). */
    MemCompleted,

    /** Walk finished. walker = walker index, arg0 = memory accesses
     *  performed (1-4), arg1 = walker service time (ticks). */
    WalkDone,

    // Demand-paging kinds are appended so the numeric values above —
    // and with them the committed golden trace digests of fully
    // resident runs — stay stable.

    /** A walk reached a non-present entry and raised a far fault.
     *  level = the non-present PT level (4..1), walker = the walker
     *  that hit it, arg0 = walks parked behind the fault so far. */
    FaultRaised,

    /** The GMMU repaired the fault; parked walks re-enter scheduling.
     *  arg0 = walks released, arg1 = raise-to-service latency
     *  (ticks). */
    FaultServiced,

    // Prefetch kinds are likewise appended: the values above appear in
    // every committed golden digest and must not shift.

    /** A speculative translation walk was issued into an idle walker.
     *  walker = walker index, vaPage = predicted page, arg0 = path
     *  confidence in per-mille, arg1 = the triggering demand page. */
    PrefetchIssued,

    /** A demand request hit an IOMMU TLB entry filled by a prefetch
     *  (first touch only). instruction/wavefront = the demand
     *  request's. */
    PrefetchUseful,
};

/** Number of distinct EventKind values. */
constexpr unsigned numEventKinds = 11;

/** Short lowercase name of @p kind (e.g. "scheduled"). */
const char *toString(EventKind kind);

/** Sentinel walker index for events not tied to a walker. */
constexpr std::uint32_t noWalker = ~std::uint32_t(0);

/** One timestamped lifecycle event. */
struct Event
{
    sim::Tick tick = 0;
    EventKind kind = EventKind::Coalesced;
    std::uint8_t level = 0;            ///< PT level for Mem* events
    std::uint16_t ctx = 0;             ///< tlb::ContextId (ASID)
    std::uint32_t walker = noWalker;   ///< walker index where relevant
    std::uint32_t wavefront = 0;
    std::uint64_t instruction = 0;     ///< tlb::InstructionId
    mem::Addr vaPage = 0;
    std::uint64_t arg0 = 0;            ///< kind-specific payload
    std::uint64_t arg1 = 0;            ///< kind-specific payload
};

/** Tracing knobs. Lives in SystemConfig; does not perturb simulated
 *  behaviour, so it is deliberately excluded from the config banner
 *  (and hence from config fingerprints). */
struct TraceConfig
{
    /** Master switch; off = the tracer is never constructed. */
    bool enabled = false;

    /** Events retained in the ring buffer (bounded memory). */
    std::size_t ringCapacity = 1u << 20;

    /**
     * Chrome trace_event JSON output path ("" = no export). Single-run
     * front ends write exactly this path; the sweep runner derives one
     * uniquified file per run from it (see exp::runOne).
     */
    std::string outPath;
};

/**
 * The bounded in-memory event sink. Not thread-safe by design: a
 * System owns exactly one, driven by its single event queue.
 */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig &cfg = {})
        : capacity_(cfg.ringCapacity), ring_(capacity_)
    {
        GPUWALK_ASSERT(capacity_ > 0, "tracer ring needs capacity");
    }

    /** Appends @p ev; silently drops the oldest event when full. */
    void
    record(const Event &ev)
    {
        ring_[head_] = ev;
        head_ = (head_ + 1) % capacity_;
        ++recorded_;
    }

    /** Events currently retained. */
    std::size_t
    size() const
    {
        return recorded_ < capacity_ ? static_cast<std::size_t>(recorded_)
                                     : capacity_;
    }

    std::size_t capacity() const { return capacity_; }

    /** Events ever recorded (including since-dropped ones). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events dropped because the ring was full. */
    std::uint64_t
    dropped() const
    {
        return recorded_ < capacity_ ? 0 : recorded_ - capacity_;
    }

    /** Applies @p fn to every retained event, oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = size();
        // Oldest retained event: head_ when the ring has wrapped.
        const std::size_t start =
            recorded_ < capacity_ ? 0 : head_;
        for (std::size_t i = 0; i < n; ++i)
            fn(ring_[(start + i) % capacity_]);
    }

    /** Retained events, oldest first (convenience for tests). */
    std::vector<Event>
    snapshot() const
    {
        std::vector<Event> out;
        out.reserve(size());
        forEach([&out](const Event &ev) { out.push_back(ev); });
        return out;
    }

    /** Drops all retained events and counters. */
    void
    clear()
    {
        head_ = 0;
        recorded_ = 0;
    }

  private:
    std::size_t capacity_;
    std::vector<Event> ring_;
    std::size_t head_ = 0;       ///< next write slot
    std::uint64_t recorded_ = 0;
};

} // namespace gpuwalk::trace

#endif // GPUWALK_TRACE_TRACE_HH

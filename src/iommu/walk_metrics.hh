/**
 * @file
 * Per-SIMD-instruction walk instrumentation.
 *
 * Collects exactly the quantities the paper's motivation and result
 * figures are built from: per-instruction walk counts and memory
 * accesses (Fig. 3), interleaving of walk service (Fig. 5),
 * first/last-completed walk latencies (Figs. 6 and 10), and total walk
 * counts (Fig. 11).
 */

#ifndef GPUWALK_IOMMU_WALK_METRICS_HH
#define GPUWALK_IOMMU_WALK_METRICS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "tlb/translation.hh"
#include "vm/page_table.hh"

namespace gpuwalk::iommu {

/**
 * Shared bucket upper bounds (ticks) for the walk-latency breakdown
 * histograms; a final overflow bucket catches everything above. Spans
 * one GPU cycle (500 ticks) up to multi-millisecond stalls.
 */
const std::vector<std::uint64_t> &latencyBucketBounds();

/**
 * Where a walk's time went, split at the two hand-off points the
 * scheduler controls: waiting in the IOMMU buffer, being serviced by a
 * walker, and the per-level memory accesses inside that service time.
 */
struct LatencyBreakdownSummary
{
    /** One bucketed distribution (bounds from latencyBucketBounds()). */
    struct Dist
    {
        /** Per-bucket sample counts; last element is the overflow. */
        std::vector<std::uint64_t> bucketCounts;
        std::uint64_t samples = 0;
        double avg = 0.0; ///< mean latency in ticks (0 if no samples)
    };

    /** Dispatch tick minus arrival tick, per scheduled walk. */
    Dist queueWait;

    /** Walker service time (finished minus started), per walk. */
    Dist walkerService;

    /** Memory latency of each page-table access; index = level - 1. */
    std::array<Dist, vm::numPtLevels> levelMem;
};

/** Aggregated results of one run, computed by WalkMetrics::summarize. */
struct WalkMetricsSummary
{
    /** Instructions that generated at least one page walk. */
    std::uint64_t instructionsWithWalks = 0;

    /** Instructions that generated at least two walks. */
    std::uint64_t multiWalkInstructions = 0;

    /** Multi-walk instructions whose walks were service-interleaved. */
    std::uint64_t interleavedInstructions = 0;

    /** interleaved / multiWalk (Fig. 5 metric). */
    double interleavedFraction = 0.0;

    /** Total page walks serviced (Fig. 11 numerator). */
    std::uint64_t totalWalks = 0;

    /** Total walker memory accesses. */
    std::uint64_t totalMemAccesses = 0;

    /**
     * Mean latency (ticks) of the first-completed walk per multi-walk
     * instruction (Fig. 6 baseline bar).
     */
    double avgFirstCompletedLatency = 0.0;

    /** Mean latency of the last-completed walk (Fig. 6 second bar). */
    double avgLastCompletedLatency = 0.0;

    /**
     * Mean (lastCompletionTick - firstCompletionTick) per multi-walk
     * instruction (the Fig. 10 "latency gap").
     */
    double avgLatencyGap = 0.0;

    /**
     * Per-instruction walker memory accesses, bucketed as in Fig. 3:
     * 1-16, 17-32, 33-48, 49-64, 65-80, 81-256(+).
     */
    std::vector<std::uint64_t> workBucketCounts;
    std::vector<double> workBucketFractions;
    static const std::vector<std::uint64_t> &workBucketBounds();
};

/** Collects per-instruction walk events; summarize() at end of run. */
class WalkMetrics
{
  public:
    /** A walk for @p instr was handed to a walker (the first one
     *  creates the instruction's record). */
    void
    onDispatch(tlb::InstructionId instr)
    {
        Record &r = records_[instr];
        const std::uint64_t seq = nextDispatchSeq_++;
        if (r.dispatches == 0)
            r.firstDispatchSeq = seq;
        r.lastDispatchSeq = seq;
        ++r.dispatches;
    }

    /**
     * A walk for @p instr finished.
     * @param arrival When that walk entered the walk path.
     * @param finished Completion tick.
     * @param accesses Memory accesses the walk performed (1-4).
     */
    void
    onComplete(tlb::InstructionId instr, sim::Tick arrival,
               sim::Tick finished, unsigned accesses)
    {
        Record &r = records_[instr];
        ++r.walksCompleted;
        r.memAccesses += accesses;
        const sim::Tick latency = finished - arrival;
        if (r.walksCompleted == 1 || finished < r.firstCompletionTick) {
            r.firstCompletionTick = finished;
            r.firstCompletionLatency = latency;
        }
        if (r.walksCompleted == 1 || finished >= r.lastCompletionTick) {
            r.lastCompletionTick = finished;
            r.lastCompletionLatency = latency;
        }
    }

    /** Computes the aggregate view. */
    WalkMetricsSummary summarize() const;

  private:
    struct Record
    {
        std::uint64_t walksCompleted = 0;
        std::uint64_t memAccesses = 0;
        std::uint64_t dispatches = 0;
        std::uint64_t firstDispatchSeq = 0;
        std::uint64_t lastDispatchSeq = 0;
        sim::Tick firstCompletionTick = 0;
        sim::Tick lastCompletionTick = 0;
        sim::Tick firstCompletionLatency = 0;
        sim::Tick lastCompletionLatency = 0;
    };

    // summarize() iterates this map, but every aggregate it computes is
    // an order-independent sum/count, so flat-hash iteration order (a
    // function of the key set only) cannot perturb results.
    sim::FlatMap<tlb::InstructionId, Record> records_;
    std::uint64_t nextDispatchSeq_ = 0;
};

} // namespace gpuwalk::iommu

#endif // GPUWALK_IOMMU_WALK_METRICS_HH

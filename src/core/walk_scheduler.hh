/**
 * @file
 * The page-table-walk scheduler interface — the paper's contribution
 * point. When a hardware walker becomes free, the IOMMU asks the
 * active scheduler which pending request to service next.
 */

#ifndef GPUWALK_CORE_WALK_SCHEDULER_HH
#define GPUWALK_CORE_WALK_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/pending_walk.hh"

namespace gpuwalk::core {

/** The scheduling policies studied by the paper + our ablations. */
enum class SchedulerKind
{
    Fcfs,      ///< baseline: first come, first served
    Random,    ///< naive random pick (paper Fig. 2 strawman)
    SjfOnly,   ///< ablation: key idea 1 only (score-based SJF)
    BatchOnly, ///< ablation: key idea 2 only (same-instruction batching)
    SimtAware, ///< the paper's full scheduler: SJF + batching + aging

    /** QoS: SJF + batching with starvation-free cross-tenant weighted
     *  sharing by service. */
    WeightedShare,
};

/** Printable name of @p kind (matches factory spelling). */
std::string toString(SchedulerKind kind);

/** Parses a scheduler name; fatal() on unknown names. */
SchedulerKind schedulerKindFromString(const std::string &name);

/**
 * Why a dispatch picked the request it did — recorded into Scheduled
 * trace events so ordering claims (batching, SJF, aging) are testable
 * per decision rather than inferred from aggregates. The values appear
 * in golden trace digests as Scheduled arg0, so new reasons go last.
 */
enum class PickReason : std::uint8_t
{
    Immediate = 0, ///< idle walker, scheduler never consulted
    Policy,        ///< a policy pick with no finer classification
    Batch,         ///< same-instruction batching (paper key idea 2)
    Sjf,           ///< lowest job-length score (paper key idea 1)
    Aging,         ///< anti-starvation override
};

/** Short name of @p reason (e.g. "batch"). */
const char *toString(PickReason reason);

/**
 * Policy deciding the service order of pending page walks.
 *
 * The IOMMU owns the buffer and the walkers; the scheduler only picks
 * indices and observes dispatches. Implementations must be
 * deterministic given their seed.
 */
class WalkScheduler
{
  public:
    virtual ~WalkScheduler() = default;

    /** Human-readable policy name. */
    virtual std::string name() const = 0;

    /**
     * True if the IOMMU should compute arrival-time PWC score
     * estimates for this policy (actions 1-a/1-b of the paper).
     * Skipping them for FCFS/Random keeps the baseline honest: it
     * does no scoring work.
     */
    virtual bool needsScores() const { return false; }

    /**
     * Picks the buffer index to service next. @pre !buffer.empty()
     * Must not modify the buffer.
     */
    virtual std::size_t selectNext(const WalkBuffer &buffer) = 0;

    /**
     * Classifies the most recent selectNext() decision. Policies with
     * a single rule report Policy; the SIMT-aware scheduler
     * distinguishes its aging/batching/SJF branches.
     */
    virtual PickReason lastPickReason() const
    {
        return PickReason::Policy;
    }

    /**
     * True if this policy maintains the per-entry bypass counters via
     * onDispatch(). Policies that dispatch strictly in arrival order
     * (FCFS) skip the bookkeeping and return false, which lets the
     * conservation auditor demand their buffered entries all show
     * bypassed == 0 — a stale counter there would mean two schedulers
     * disagreed about a shared buffer.
     */
    virtual bool tracksAging() const { return true; }

    /**
     * Observes that @p walk was dispatched to a walker, after it was
     * extracted from @p buffer. Default updates the aging counters:
     * every remaining entry older than the dispatched one was just
     * bypassed. The increment saturates — a wrapped counter would
     * reset a starving request's aging priority back to zero.
     */
    virtual void
    onDispatch(WalkBuffer &buffer, const PendingWalk &walk)
    {
        buffer.recordBypass(walk.seq);
    }
};

/** Anti-starvation and policy knobs for the SIMT-aware scheduler. */
struct SimtSchedulerConfig
{
    /**
     * Aging threshold: a request bypassed this many times is promoted
     * over all others. The paper used two million; sized relative to
     * its much longer simulations, so ours defaults lower but is still
     * rarely hit.
     */
    std::uint64_t agingThreshold = 2'000'000;

    /** Enables key idea 1 (SJF scoring). */
    bool enableSjf = true;

    /** Enables key idea 2 (same-instruction batching). */
    bool enableBatching = true;
};

/** Cross-tenant fairness knobs for the QoS walk scheduler. */
struct QosSchedulerConfig
{
    /**
     * Weighted share: per-ContextId weights (index = ContextId). A
     * missing or zero entry means weight 1. A tenant's walker service
     * is charged at estimatedAccesses/weight, and the tenant with the
     * least charged service is picked next.
     */
    std::vector<std::uint32_t> shareWeights;

    /** Weight of @p ctx under the missing-entry = 1 convention. */
    std::uint32_t
    weightOf(std::size_t ctx) const
    {
        return ctx < shareWeights.size() && shareWeights[ctx]
                   ? shareWeights[ctx]
                   : 1;
    }
};

/** Creates a scheduler. @p seed only matters for Random; @p qos only
 *  for WeightedShare. */
std::unique_ptr<WalkScheduler>
makeScheduler(SchedulerKind kind, std::uint64_t seed = 1,
              const SimtSchedulerConfig &cfg = {},
              const QosSchedulerConfig &qos = {});

} // namespace gpuwalk::core

#endif // GPUWALK_CORE_WALK_SCHEDULER_HH

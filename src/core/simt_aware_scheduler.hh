/**
 * @file
 * The paper's SIMT-aware page table walk scheduler (§IV).
 *
 * Selection order when a walker frees up:
 *   0. Aging override: any request bypassed more than the threshold is
 *      serviced first (oldest such), preventing starvation.
 *   1. Batching (key idea 2): a pending request from the same SIMD
 *      instruction as the most recently dispatched walk — oldest first.
 *   2. SJF (key idea 1): the request whose instruction has the lowest
 *      estimated total walk cost (score); ties broken oldest-first.
 *
 * The ablation kinds SchedulerKind::SjfOnly / BatchOnly disable one of
 * the two ideas.
 */

#ifndef GPUWALK_CORE_SIMT_AWARE_SCHEDULER_HH
#define GPUWALK_CORE_SIMT_AWARE_SCHEDULER_HH

#include <optional>

#include "core/walk_scheduler.hh"

namespace gpuwalk::core {

/** SJF + batching + aging walk scheduler. */
class SimtAwareScheduler : public WalkScheduler
{
  public:
    /** @p kind is SimtAware, SjfOnly or BatchOnly: it picks which of
     *  the two rules run. */
    explicit SimtAwareScheduler(
        SchedulerKind kind = SchedulerKind::SimtAware,
        const SimtSchedulerConfig &cfg = {})
        : kind_(kind), cfg_(cfg)
    {
        GPUWALK_ASSERT(usesSjf(kind) || usesBatching(kind),
                       "not a SIMT-aware scheduler kind: ",
                       toString(kind));
    }

    /** Key idea 1 runs under SimtAware and SjfOnly. */
    static bool
    usesSjf(SchedulerKind kind)
    {
        return kind == SchedulerKind::SimtAware
               || kind == SchedulerKind::SjfOnly;
    }

    /** Key idea 2 runs under SimtAware and BatchOnly. */
    static bool
    usesBatching(SchedulerKind kind)
    {
        return kind == SchedulerKind::SimtAware
               || kind == SchedulerKind::BatchOnly;
    }

    std::string name() const override { return toString(kind_); }

    bool needsScores() const override { return usesSjf(kind_); }

    std::size_t selectNext(const WalkBuffer &buffer) override;

    void onDispatch(WalkBuffer &buffer, const PendingWalk &walk) override;

    PickReason lastPickReason() const override { return lastPick_; }

    /** Instruction ID of the most recently dispatched walk, if any. */
    std::optional<tlb::InstructionId>
    lastInstruction() const
    {
        return lastInstruction_;
    }

    /** Times the aging override fired (visible for tests/stats). */
    std::uint64_t agingOverrides() const { return agingOverrides_; }

    /** Times the batching rule (not SJF) made the pick. */
    std::uint64_t batchPicks() const { return batchPicks_; }

  private:
    SchedulerKind kind_;
    SimtSchedulerConfig cfg_;
    std::optional<tlb::InstructionId> lastInstruction_;
    PickReason lastPick_ = PickReason::Policy;
    std::uint64_t agingOverrides_ = 0;
    std::uint64_t batchPicks_ = 0;
};

} // namespace gpuwalk::core

#endif // GPUWALK_CORE_SIMT_AWARE_SCHEDULER_HH

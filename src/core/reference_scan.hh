/**
 * @file
 * Reference linear-scan implementations of the scheduler pick rules.
 *
 * These are the scan-at-dispatch loops the production schedulers used
 * before WalkBuffer grew incremental pick indexes — kept verbatim (up
 * to naming) as executable specifications. The differential fuzz test
 * (test_scheduler_diff.cc) runs them side by side with the indexed
 * schedulers over randomized request streams and asserts identical
 * picks and PickReasons at every decision, which is what lets the O(1)
 * index paths claim bit-identical behavior rather than merely similar
 * policy. Not compiled into the simulator targets.
 */

#ifndef GPUWALK_CORE_REFERENCE_SCAN_HH
#define GPUWALK_CORE_REFERENCE_SCAN_HH

#include <optional>

#include "core/walk_scheduler.hh"

namespace gpuwalk::core::reference {

/** FCFS: oldest entry by seq, by full scan. */
inline std::size_t
fcfsSelect(const WalkBuffer &buffer)
{
    const auto &entries = buffer.entries();
    GPUWALK_ASSERT(!entries.empty(), "selectNext on empty buffer");
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries.size(); ++i) {
        if (entries[i].seq < entries[best].seq)
            best = i;
    }
    return best;
}

/**
 * The SIMT-aware selection rules (aging, batching, SJF) as full scans.
 * Covers the SjfOnly/BatchOnly ablations through the same config flags
 * the production scheduler takes. Mirrors SimtAwareScheduler's state:
 * lastInstruction must be updated via onDispatch exactly as the
 * production scheduler's is.
 */
class SimtScan
{
  public:
    explicit SimtScan(const SimtSchedulerConfig &cfg = {}) : cfg_(cfg) {}

    std::size_t
    selectNext(const WalkBuffer &buffer)
    {
        const auto &entries = buffer.entries();
        GPUWALK_ASSERT(!entries.empty(), "selectNext on empty buffer");

        // 0. Anti-starvation: oldest request past the aging threshold.
        {
            std::size_t best = entries.size();
            for (std::size_t i = 0; i < entries.size(); ++i) {
                if (entries[i].bypassed < cfg_.agingThreshold)
                    continue;
                if (best == entries.size()
                    || entries[i].seq < entries[best].seq) {
                    best = i;
                }
            }
            if (best != entries.size()) {
                lastPick_ = PickReason::Aging;
                return best;
            }
        }

        // 1. Batch with the most recently dispatched instruction.
        if (cfg_.enableBatching && lastInstruction_) {
            std::size_t best = entries.size();
            for (std::size_t i = 0; i < entries.size(); ++i) {
                if (entries[i].instruction != *lastInstruction_)
                    continue;
                if (best == entries.size()
                    || entries[i].seq < entries[best].seq) {
                    best = i;
                }
            }
            if (best != entries.size()) {
                lastPick_ = PickReason::Batch;
                return best;
            }
            lastInstruction_.reset();
        }

        // 2. Shortest job first by score; FCFS without scoring enabled.
        std::size_t best = 0;
        for (std::size_t i = 1; i < entries.size(); ++i) {
            if (cfg_.enableSjf) {
                if (entries[i].score != entries[best].score) {
                    if (entries[i].score < entries[best].score)
                        best = i;
                    continue;
                }
            }
            if (entries[i].seq < entries[best].seq)
                best = i;
        }
        lastPick_ = cfg_.enableSjf ? PickReason::Sjf : PickReason::Policy;
        return best;
    }

    void
    onDispatch(const PendingWalk &walk)
    {
        lastInstruction_ = walk.instruction;
    }

    PickReason lastPickReason() const { return lastPick_; }

  private:
    SimtSchedulerConfig cfg_;
    std::optional<tlb::InstructionId> lastInstruction_;
    PickReason lastPick_ = PickReason::Policy;
};

} // namespace gpuwalk::core::reference

#endif // GPUWALK_CORE_REFERENCE_SCAN_HH

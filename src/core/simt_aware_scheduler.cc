#include "core/simt_aware_scheduler.hh"

namespace gpuwalk::core {

std::size_t
SimtAwareScheduler::selectNext(const WalkBuffer &buffer)
{
    GPUWALK_ASSERT(!buffer.empty(), "selectNext on empty buffer");

    // 0. Anti-starvation: oldest request past the aging threshold.
    // O(1) until the buffer's bypass watermark crosses the threshold,
    // which the default two-million threshold makes a rare event.
    {
        const std::size_t aged =
            buffer.agingCandidate(cfg_.agingThreshold);
        if (aged != WalkBuffer::npos) {
            ++agingOverrides_;
            lastPick_ = PickReason::Aging;
            return aged;
        }
    }

    // 1. Batch with the most recently dispatched instruction: one
    // bucket-index probe yields its oldest pending sibling.
    if (cfg_.enableBatching && lastInstruction_) {
        const std::size_t sibling =
            buffer.instructionHead(*lastInstruction_);
        if (sibling != WalkBuffer::npos) {
            ++batchPicks_;
            lastPick_ = PickReason::Batch;
            return sibling;
        }
        // The buffer holds no entry for that instruction: its walks
        // have drained, so the ID is stale. Clear it rather than let
        // it linger and claim future Batch labels for an instruction
        // that stopped being "the one being serviced" long ago.
        lastInstruction_.reset();
    }

    // 2. Shortest job first by score — the buffer's score index hands
    // over the exact (score, seq) minimum; FCFS without scoring.
    if (cfg_.enableSjf) {
        lastPick_ = PickReason::Sjf;
        return buffer.sjfBestIndex();
    }
    lastPick_ = PickReason::Policy;
    return buffer.oldestIndex();
}

void
SimtAwareScheduler::onDispatch(WalkBuffer &buffer, const PendingWalk &walk)
{
    lastInstruction_ = walk.instruction;
    WalkScheduler::onDispatch(buffer, walk); // aging bookkeeping
}

} // namespace gpuwalk::core

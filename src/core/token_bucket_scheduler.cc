#include "core/token_bucket_scheduler.hh"

#include <algorithm>

namespace gpuwalk::core {

TokenBucketScheduler::TokenBucketScheduler(const SimtSchedulerConfig &cfg,
                                           const QosSchedulerConfig &qos)
    : cfg_(cfg), qos_(qos)
{
    GPUWALK_ASSERT(qos_.tokenWindow > 0, "token window must be positive");
    GPUWALK_ASSERT(qos_.tokenQuota > 0, "token quota must be positive");
}

std::size_t
TokenBucketScheduler::selectNext(const WalkBuffer &buffer)
{
    GPUWALK_ASSERT(!buffer.empty(), "selectNext on empty buffer");

    // 0. Anti-starvation, budget-exempt: a tenant must not be able to
    // starve another into its aging threshold merely by holding quota.
    {
        const std::size_t aged =
            buffer.agingCandidate(cfg_.agingThreshold);
        if (aged != WalkBuffer::npos) {
            ++agingOverrides_;
            lastPick_ = PickReason::Aging;
            return aged;
        }
    }

    // 1. Batch with the in-service instruction while its tenant still
    // holds tokens. An over-budget tenant loses its batch, but the
    // instruction ID is kept: the budget resets next window and its
    // siblings may still be pending then.
    if (lastInstruction_) {
        const std::size_t sibling =
            buffer.instructionHead(*lastInstruction_);
        if (sibling == WalkBuffer::npos) {
            lastInstruction_.reset(); // drained; the ID is stale
        } else if (underQuota(buffer.at(sibling).ctx)) {
            lastPick_ = PickReason::Batch;
            return sibling;
        }
    }

    // 2. SJF restricted to under-quota tenants: compare the per-tenant
    // (score, seq) minima. Tenant IDs are small and dense, so the scan
    // over contextLimit() is a handful of iterations.
    std::size_t best = WalkBuffer::npos;
    for (std::size_t ctx = 0; ctx < buffer.contextLimit(); ++ctx) {
        const auto id = static_cast<tlb::ContextId>(ctx);
        if (buffer.contextCount(id) == 0 || !underQuota(id))
            continue;
        const std::size_t cand = buffer.sjfBestOfContext(id);
        if (best == WalkBuffer::npos)
            best = cand;
        else if (buffer.at(cand).score < buffer.at(best).score
                 || (buffer.at(cand).score == buffer.at(best).score
                     && buffer.at(cand).seq < buffer.at(best).seq))
            best = cand;
    }
    if (best != WalkBuffer::npos) {
        lastPick_ = PickReason::Sjf;
        return best;
    }

    // 3. Work-conserving overdraft: every pending tenant is over
    // budget; dispatch the global SJF minimum rather than idle.
    ++overdrafts_;
    lastPick_ = PickReason::Overdraft;
    return buffer.sjfBestIndex();
}

void
TokenBucketScheduler::onDispatch(WalkBuffer &buffer,
                                 const PendingWalk &walk)
{
    const tlb::ContextId ctx = walk.ctx;
    if (spent_.size() <= ctx)
        spent_.resize(ctx + 1, 0);
    ++spent_[ctx];
    if (++windowFill_ >= qos_.tokenWindow) {
        // Tumbling window boundary: everyone's budget refills.
        windowFill_ = 0;
        std::fill(spent_.begin(), spent_.end(), 0u);
    }
    lastInstruction_ = walk.instruction;
    WalkScheduler::onDispatch(buffer, walk); // aging bookkeeping
}

} // namespace gpuwalk::core

#include "core/weighted_share_scheduler.hh"

#include <algorithm>
#include <limits>

namespace gpuwalk::core {

WeightedShareScheduler::WeightedShareScheduler(
    const SimtSchedulerConfig &cfg, const QosSchedulerConfig &qos)
    : cfg_(cfg), qos_(qos)
{
}

std::size_t
WeightedShareScheduler::selectNext(const WalkBuffer &buffer)
{
    GPUWALK_ASSERT(!buffer.empty(), "selectNext on empty buffer");

    // 0. Anti-starvation first: the weights shape throughput, the
    // aging threshold bounds latency.
    {
        const std::size_t aged =
            buffer.agingCandidate(cfg_.agingThreshold);
        if (aged != WalkBuffer::npos) {
            ++agingOverrides_;
            lastPick_ = PickReason::Aging;
            return aged;
        }
    }

    const std::size_t limit = buffer.contextLimit();
    if (service_.size() < limit) {
        service_.resize(limit, 0);
        wasPending_.resize(limit, 0);
    }

    // Floor-on-activation: a tenant re-entering the pending set after
    // an idle spell catches up to the least-served tenant that stayed
    // busy, instead of draining its banked deficit first. Two passes —
    // the floor must be the continuing tenants' minimum, not skewed by
    // other returners.
    std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t ctx = 0; ctx < limit; ++ctx) {
        const auto id = static_cast<tlb::ContextId>(ctx);
        if (buffer.contextCount(id) > 0 && wasPending_[ctx])
            floor = std::min(floor, service_[ctx]);
    }
    std::size_t best = WalkBuffer::npos;
    tlb::ContextId bestCtx = 0;
    for (std::size_t ctx = 0; ctx < limit; ++ctx) {
        const auto id = static_cast<tlb::ContextId>(ctx);
        const bool pending = buffer.contextCount(id) > 0;
        if (pending && !wasPending_[ctx]
            && floor != std::numeric_limits<std::uint64_t>::max())
            service_[ctx] = std::max(service_[ctx], floor);
        wasPending_[ctx] = pending;
        if (!pending)
            continue;
        // 1. Least charged virtual service wins; ties to the lowest
        // ContextId for determinism.
        if (best == WalkBuffer::npos || service_[ctx] < service_[bestCtx])
        {
            best = ctx;
            bestCtx = id;
        }
    }
    GPUWALK_ASSERT(best != WalkBuffer::npos,
                   "non-empty buffer with no pending tenant");

    // 2. Within the chosen tenant: batching, then the tenant-local
    // (score, seq) minimum.
    if (lastInstruction_) {
        const std::size_t sibling =
            buffer.instructionHead(*lastInstruction_);
        if (sibling == WalkBuffer::npos) {
            lastInstruction_.reset(); // drained; the ID is stale
        } else if (buffer.at(sibling).ctx == bestCtx) {
            lastPick_ = PickReason::Batch;
            return sibling;
        }
    }
    lastPick_ = PickReason::Sjf;
    return buffer.sjfBestOfContext(bestCtx);
}

void
WeightedShareScheduler::onDispatch(WalkBuffer &buffer,
                                   const PendingWalk &walk)
{
    const tlb::ContextId ctx = walk.ctx;
    if (service_.size() <= ctx) {
        service_.resize(ctx + 1, 0);
        wasPending_.resize(ctx + 1, 0);
    }
    // Charge the walk's estimated memory accesses (1-4), deflated by
    // the tenant's weight. A zero estimate (cold scoring path) still
    // charges one access so service strictly increases.
    const std::uint64_t accesses =
        walk.estimatedAccesses ? walk.estimatedAccesses : 1;
    service_[ctx] += accesses * scale / qos_.weightOf(ctx);
    lastInstruction_ = walk.instruction;
    WalkScheduler::onDispatch(buffer, walk); // aging bookkeeping
}

} // namespace gpuwalk::core

/**
 * @file
 * WalkBuffer pick-index maintenance.
 *
 * All three indexes are intrusive doubly-linked lists over the dense
 * entry vector, kept sorted by seq within each list, so every "pick"
 * question a scheduler asks is a list-head read and every insert or
 * extract rewires a constant number of links (inserts append in O(1)
 * because simulator seqs arrive monotonically; the backward walk only
 * runs for the out-of-order sequences unit tests construct).
 */

#include "core/pending_walk.hh"

#include <algorithm>
#include <bit>

namespace gpuwalk::core {

namespace {

constexpr std::uint64_t saturated = ~std::uint64_t{0};

/** @p k saturating increments at once — identical to applying them
 *  one by one, because increments stop exactly at the sentinel. */
void
addSaturating(std::uint64_t &counter, std::uint64_t k)
{
    counter = counter > saturated - k ? saturated : counter + k;
}

} // namespace

WalkBuffer::WalkBuffer(std::size_t capacity) : capacity_(capacity)
{
    GPUWALK_ASSERT(capacity > 0, "walk buffer needs capacity");
    entries_.reserve(capacity);
    links_.reserve(capacity);
    instrIndex_.reserve(capacity);
    deferredBypass_.reserve(bypassBatch);
}

std::size_t
WalkBuffer::insert(PendingWalk w)
{
    GPUWALK_ASSERT(!full(), "walk buffer overflow");
    // A deferred increment must not leak onto an entry that was not
    // yet buffered when its dispatch happened. Simulator seqs arrive
    // monotonically, so only unit tests' out-of-order streams settle
    // here.
    if (!deferredBypass_.empty() && w.seq < maxDeferredSeq_)
        flushBypass();
    const std::size_t idx = entries_.size();
    if (w.bypassed > maxBypassed_)
        maxBypassed_ = w.bypassed;
    entries_.push_back(std::move(w));
    links_.emplace_back();
    linkArrival(idx);
    linkInstruction(idx);
    linkScore(idx);
    linkContext(idx);
    return idx;
}

PendingWalk
WalkBuffer::extract(std::size_t idx)
{
    GPUWALK_ASSERT(idx < entries_.size(), "bad buffer index");
    if (!deferredBypass_.empty()) {
        // Settle this entry's share of the pending increments; the
        // batch stays deferred for the survivors.
        const std::uint64_t seq = entries_[idx].seq;
        std::uint64_t k = 0;
        for (const std::uint64_t s : deferredBypass_)
            k += s > seq ? 1 : 0;
        addSaturating(entries_[idx].bypassed, k);
    }
    unlinkArrival(idx);
    unlinkInstruction(idx);
    unlinkScore(idx);
    unlinkContext(idx);
    PendingWalk out = std::move(entries_[idx]);
    const std::size_t last = entries_.size() - 1;
    if (idx != last) {
        entries_[idx] = std::move(entries_[last]);
        links_[idx] = links_[last];
        repointNeighbors(last, idx);
    }
    entries_.pop_back();
    links_.pop_back();
    if (entries_.empty() && !deferredBypass_.empty()) {
        deferredBypass_.clear();
        maxDeferredSeq_ = 0;
    }
    return out;
}

std::size_t
WalkBuffer::sjfBestIndex() const
{
    GPUWALK_ASSERT(!empty(), "sjfBestIndex on empty buffer");
    if (directCount_ > 0)
        return scoreBuckets_[minDirectScore()].head;
    // Every overflow score exceeds every direct score, so this scan
    // only runs when *all* entries carry out-of-range scores. The
    // list is seq-sorted, so the first strict improvement wins the
    // (score, seq) tie-break.
    std::size_t best = overflow_.head;
    for (std::size_t i = links_[best].scoreNext; i != npos;
         i = links_[i].scoreNext) {
        if (entries_[i].score < entries_[best].score)
            best = i;
    }
    return best;
}

std::size_t
WalkBuffer::sjfBestOfContext(tlb::ContextId ctx) const
{
    std::size_t best = contextHead(ctx);
    if (best == npos)
        return npos;
    // The list is seq-sorted, so only a strict score improvement moves
    // the pick — the same (score, seq) tie-break the global SJF bitmap
    // implements.
    for (std::size_t i = links_[best].ctxNext; i != npos;
         i = links_[i].ctxNext) {
        if (entries_[i].score < entries_[best].score)
            best = i;
    }
    return best;
}

std::size_t
WalkBuffer::agingCandidate(std::uint64_t threshold) const
{
    if (empty())
        return npos;
    // Each pending dispatch raises a counter by at most one, so the
    // settled watermark plus the batch size bounds the true maximum;
    // the settle itself only runs when an override is plausible.
    std::uint64_t bound = maxBypassed_;
    addSaturating(bound, deferredBypass_.size());
    if (bound < threshold)
        return npos;
    syncBypass();
    if (maxBypassed_ < threshold)
        return npos;
    // The watermark says some entry *may* qualify; confirm by walking
    // the arrival list so the hit is the oldest qualifier, exactly as
    // the retired scan picked it. A miss means the watermark was a
    // stale upper bound (the max holder was extracted) — tighten it so
    // the fast path resumes.
    std::uint64_t observed = 0;
    for (std::size_t i = arrivalHead_; i != npos;
         i = links_[i].arrivalNext) {
        if (entries_[i].bypassed >= threshold)
            return i;
        if (entries_[i].bypassed > observed)
            observed = entries_[i].bypassed;
    }
    maxBypassed_ = observed;
    return npos;
}

void
WalkBuffer::recordBypass(std::uint64_t dispatched_seq)
{
    // The arrival head holds the minimum seq, so this is an exact
    // nothing-was-bypassed test (FCFS dispatches always land here).
    if (arrivalHead_ == npos
        || entries_[arrivalHead_].seq >= dispatched_seq)
        return;
    deferredBypass_.push_back(dispatched_seq);
    if (dispatched_seq > maxDeferredSeq_)
        maxDeferredSeq_ = dispatched_seq;
    if (deferredBypass_.size() >= bypassBatch)
        flushBypass();
}

void
WalkBuffer::flushBypass()
{
    // An entry's share of the batch is the number of recorded
    // dispatch seqs strictly above its own.
    std::sort(deferredBypass_.begin(), deferredBypass_.end());
    const auto first = deferredBypass_.begin();
    const auto last = deferredBypass_.end();
    for (PendingWalk &e : entries_) {
        const std::uint64_t k = static_cast<std::uint64_t>(
            last - std::upper_bound(first, last, e.seq));
        if (k == 0)
            continue;
        addSaturating(e.bypassed, k);
        if (e.bypassed > maxBypassed_)
            maxBypassed_ = e.bypassed;
    }
    deferredBypass_.clear();
    maxDeferredSeq_ = 0;
}

void
WalkBuffer::rescoreInstruction(tlb::InstructionId instruction,
                               std::uint64_t score)
{
    const auto it = instrIndex_.find(instruction);
    if (it == instrIndex_.end())
        return;
    for (std::size_t i = buckets_[it->second].head; i != npos;
         i = links_[i].instrNext) {
        entries_[i].score = score;
        resyncScore(i);
    }
}

void
WalkBuffer::linkArrival(std::size_t idx)
{
    const std::uint64_t seq = entries_[idx].seq;
    std::size_t after = arrivalTail_;
    while (after != npos && entries_[after].seq > seq)
        after = links_[after].arrivalPrev;
    links_[idx].arrivalPrev = after;
    if (after == npos) {
        links_[idx].arrivalNext = arrivalHead_;
        arrivalHead_ = idx;
    } else {
        links_[idx].arrivalNext = links_[after].arrivalNext;
        links_[after].arrivalNext = idx;
    }
    if (links_[idx].arrivalNext == npos)
        arrivalTail_ = idx;
    else
        links_[links_[idx].arrivalNext].arrivalPrev = idx;
}

void
WalkBuffer::unlinkArrival(std::size_t idx)
{
    const Links &l = links_[idx];
    if (l.arrivalPrev == npos)
        arrivalHead_ = l.arrivalNext;
    else
        links_[l.arrivalPrev].arrivalNext = l.arrivalNext;
    if (l.arrivalNext == npos)
        arrivalTail_ = l.arrivalPrev;
    else
        links_[l.arrivalNext].arrivalPrev = l.arrivalPrev;
}

void
WalkBuffer::linkInstruction(std::size_t idx)
{
    const auto [it, inserted] =
        instrIndex_.try_emplace(entries_[idx].instruction,
                                std::size_t{0});
    if (inserted) {
        if (freeBuckets_.empty()) {
            it->second = buckets_.size();
            buckets_.emplace_back();
        } else {
            it->second = freeBuckets_.back();
            freeBuckets_.pop_back();
            buckets_[it->second] = ListHead{};
        }
    }
    const std::size_t b = it->second;
    links_[idx].bucket = b;
    const std::uint64_t seq = entries_[idx].seq;
    std::size_t after = buckets_[b].tail;
    while (after != npos && entries_[after].seq > seq)
        after = links_[after].instrPrev;
    links_[idx].instrPrev = after;
    if (after == npos) {
        links_[idx].instrNext = buckets_[b].head;
        buckets_[b].head = idx;
    } else {
        links_[idx].instrNext = links_[after].instrNext;
        links_[after].instrNext = idx;
    }
    if (links_[idx].instrNext == npos)
        buckets_[b].tail = idx;
    else
        links_[links_[idx].instrNext].instrPrev = idx;
}

void
WalkBuffer::unlinkInstruction(std::size_t idx)
{
    const Links &l = links_[idx];
    const std::size_t b = l.bucket;
    if (l.instrPrev == npos)
        buckets_[b].head = l.instrNext;
    else
        links_[l.instrPrev].instrNext = l.instrNext;
    if (l.instrNext == npos)
        buckets_[b].tail = l.instrPrev;
    else
        links_[l.instrNext].instrPrev = l.instrPrev;
    if (buckets_[b].head == npos) {
        freeBuckets_.push_back(b);
        instrIndex_.erase(entries_[idx].instruction);
    }
}

void
WalkBuffer::linkScore(std::size_t idx)
{
    const std::uint64_t key = entries_[idx].score;
    links_[idx].scoreKey = key;
    const std::uint64_t seq = entries_[idx].seq;
    ListHead *list;
    if (key < maxDirectScore) {
        growScoreBuckets(key);
        list = &scoreBuckets_[key];
        if (list->head == npos)
            setScoreBit(key);
        ++directCount_;
    } else {
        list = &overflow_;
        ++overflowCount_;
    }
    std::size_t after = list->tail;
    while (after != npos && entries_[after].seq > seq)
        after = links_[after].scorePrev;
    links_[idx].scorePrev = after;
    if (after == npos) {
        links_[idx].scoreNext = list->head;
        list->head = idx;
    } else {
        links_[idx].scoreNext = links_[after].scoreNext;
        links_[after].scoreNext = idx;
    }
    if (links_[idx].scoreNext == npos)
        list->tail = idx;
    else
        links_[links_[idx].scoreNext].scorePrev = idx;
}

void
WalkBuffer::unlinkScore(std::size_t idx)
{
    const Links &l = links_[idx];
    const std::uint64_t key = l.scoreKey;
    ListHead *list;
    if (key < maxDirectScore) {
        list = &scoreBuckets_[key];
        --directCount_;
    } else {
        list = &overflow_;
        --overflowCount_;
    }
    if (l.scorePrev == npos)
        list->head = l.scoreNext;
    else
        links_[l.scorePrev].scoreNext = l.scoreNext;
    if (l.scoreNext == npos)
        list->tail = l.scorePrev;
    else
        links_[l.scoreNext].scorePrev = l.scorePrev;
    if (key < maxDirectScore && list->head == npos)
        clearScoreBit(key);
}

void
WalkBuffer::linkContext(std::size_t idx)
{
    const tlb::ContextId ctx = entries_[idx].ctx;
    if (ctx >= ctxLists_.size()) {
        ctxLists_.resize(ctx + 1);
        ctxCounts_.resize(ctx + 1, 0);
    }
    ListHead &list = ctxLists_[ctx];
    ++ctxCounts_[ctx];
    const std::uint64_t seq = entries_[idx].seq;
    std::size_t after = list.tail;
    while (after != npos && entries_[after].seq > seq)
        after = links_[after].ctxPrev;
    links_[idx].ctxPrev = after;
    if (after == npos) {
        links_[idx].ctxNext = list.head;
        list.head = idx;
    } else {
        links_[idx].ctxNext = links_[after].ctxNext;
        links_[after].ctxNext = idx;
    }
    if (links_[idx].ctxNext == npos)
        list.tail = idx;
    else
        links_[links_[idx].ctxNext].ctxPrev = idx;
}

void
WalkBuffer::unlinkContext(std::size_t idx)
{
    const Links &l = links_[idx];
    ListHead &list = ctxLists_[entries_[idx].ctx];
    --ctxCounts_[entries_[idx].ctx];
    if (l.ctxPrev == npos)
        list.head = l.ctxNext;
    else
        links_[l.ctxPrev].ctxNext = l.ctxNext;
    if (l.ctxNext == npos)
        list.tail = l.ctxPrev;
    else
        links_[l.ctxNext].ctxPrev = l.ctxPrev;
}

void
WalkBuffer::resyncScore(std::size_t idx)
{
    if (links_[idx].scoreKey != entries_[idx].score) {
        unlinkScore(idx);
        linkScore(idx);
    }
}

void
WalkBuffer::repointNeighbors(std::size_t from, std::size_t to)
{
    const Links &l = links_[to]; // already holds `from`'s links
    if (l.arrivalPrev == npos)
        arrivalHead_ = to;
    else
        links_[l.arrivalPrev].arrivalNext = to;
    if (l.arrivalNext == npos)
        arrivalTail_ = to;
    else
        links_[l.arrivalNext].arrivalPrev = to;

    ListHead &bucket = buckets_[l.bucket];
    if (l.instrPrev == npos)
        bucket.head = to;
    else
        links_[l.instrPrev].instrNext = to;
    if (l.instrNext == npos)
        bucket.tail = to;
    else
        links_[l.instrNext].instrPrev = to;

    ListHead &score = l.scoreKey < maxDirectScore
                          ? scoreBuckets_[l.scoreKey]
                          : overflow_;
    if (l.scorePrev == npos)
        score.head = to;
    else
        links_[l.scorePrev].scoreNext = to;
    if (l.scoreNext == npos)
        score.tail = to;
    else
        links_[l.scoreNext].scorePrev = to;

    ListHead &ctxList = ctxLists_[entries_[to].ctx];
    if (l.ctxPrev == npos)
        ctxList.head = to;
    else
        links_[l.ctxPrev].ctxNext = to;
    if (l.ctxNext == npos)
        ctxList.tail = to;
    else
        links_[l.ctxNext].ctxPrev = to;
    (void)from;
}

void
WalkBuffer::growScoreBuckets(std::uint64_t score)
{
    if (score < scoreBuckets_.size())
        return;
    std::size_t n = scoreBuckets_.empty() ? 64 : scoreBuckets_.size();
    while (n <= score)
        n *= 2;
    scoreBuckets_.resize(n);
    scoreBitsL0_.resize((n + 63) / 64, 0);
    scoreBitsL1_.resize((scoreBitsL0_.size() + 63) / 64, 0);
}

void
WalkBuffer::setScoreBit(std::uint64_t score)
{
    scoreBitsL0_[score >> 6] |= std::uint64_t{1} << (score & 63);
    scoreBitsL1_[score >> 12] |= std::uint64_t{1} << ((score >> 6) & 63);
}

void
WalkBuffer::clearScoreBit(std::uint64_t score)
{
    scoreBitsL0_[score >> 6] &= ~(std::uint64_t{1} << (score & 63));
    if (scoreBitsL0_[score >> 6] == 0)
        scoreBitsL1_[score >> 12] &=
            ~(std::uint64_t{1} << ((score >> 6) & 63));
}

std::uint64_t
WalkBuffer::minDirectScore() const
{
    for (std::size_t w = 0; w < scoreBitsL1_.size(); ++w) {
        if (scoreBitsL1_[w] == 0)
            continue;
        const std::size_t l0 =
            w * 64
            + static_cast<std::size_t>(std::countr_zero(scoreBitsL1_[w]));
        return l0 * 64
               + static_cast<std::uint64_t>(
                   std::countr_zero(scoreBitsL0_[l0]));
    }
    GPUWALK_ASSERT(false, "minDirectScore with empty score index");
    return 0;
}

} // namespace gpuwalk::core

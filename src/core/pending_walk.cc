/**
 * @file
 * WalkBuffer pick-index maintenance.
 *
 * All four indexes are SeqLists: intrusive doubly-linked lists over
 * the dense entry vector, kept sorted by seq, so every "pick" question
 * a scheduler asks is a list-head read and every insert or extract
 * rewires a constant number of links (inserts append in O(1) because
 * simulator seqs arrive monotonically; the backward walk only runs for
 * the out-of-order sequences unit tests construct).
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
    const auto [it, fresh] =
        instrIndex_.try_emplace(w.instruction, std::size_t{0});
    if (fresh) {
        if (freeBuckets_.empty()) {
            it->second = buckets_.size();
            buckets_.emplace_back();
        } else {
            it->second = freeBuckets_.back();
            freeBuckets_.pop_back();
        }
    }
    const std::size_t b = it->second;
    if (w.ctx >= ctxLists_.size())
        ctxLists_.resize(w.ctx + 1);
    SeqList &tenant = ctxLists_[w.ctx];
    entries_.push_back(std::move(w));
    links_.emplace_back().bucket = b;
    listInsert(arrival_, &Links::arrival, idx);
    listInsert(buckets_[b], &Links::instruction, idx);
    fileScore(idx);
    listInsert(tenant, &Links::context, idx);
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
    const std::size_t b = links_[idx].bucket;
    listErase(arrival_, &Links::arrival, idx);
    listErase(buckets_[b], &Links::instruction, idx);
    if (buckets_[b].count == 0) {
        freeBuckets_.push_back(b);
        instrIndex_.erase(entries_[idx].instruction);
    }
    unfileScore(idx);
    listErase(ctxLists_[entries_[idx].ctx], &Links::context, idx);
    PendingWalk out = std::move(entries_[idx]);
    const std::size_t last = entries_.size() - 1;
    if (idx != last) {
        entries_[idx] = std::move(entries_[last]);
        links_[idx] = links_[last];
        listRepoint(arrival_, &Links::arrival, idx);
        listRepoint(buckets_[links_[idx].bucket], &Links::instruction,
                    idx);
        listRepoint(scoreList(idx), &Links::score, idx);
        listRepoint(ctxLists_[entries_[idx].ctx], &Links::context, idx);
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
    if (overflow_.count < size())
        return scoreBuckets_[minDirectScore()].head;
    // Every overflow score exceeds every direct score, so this scan
    // only runs when *all* entries carry out-of-range scores. The
    // list is seq-sorted, so the first strict improvement wins the
    // (score, seq) tie-break.
    std::size_t best = overflow_.head;
    for (std::size_t i = links_[best].score.next; i != npos;
         i = links_[i].score.next) {
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
    for (std::size_t i = links_[best].context.next; i != npos;
         i = links_[i].context.next) {
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
    for (std::size_t i = arrival_.head; i != npos;
         i = links_[i].arrival.next) {
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
    if (arrival_.head == npos
        || entries_[arrival_.head].seq >= dispatched_seq)
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
         i = links_[i].instruction.next) {
        unfileScore(i);
        entries_[i].score = score;
        fileScore(i);
    }
}

void
WalkBuffer::listInsert(SeqList &list, Hook Links::*hook, std::size_t idx)
{
    const std::uint64_t seq = entries_[idx].seq;
    std::size_t after = list.tail;
    while (after != npos && entries_[after].seq > seq)
        after = (links_[after].*hook).prev;
    Hook &h = links_[idx].*hook;
    h.prev = after;
    std::size_t &before_next =
        after == npos ? list.head : (links_[after].*hook).next;
    h.next = before_next;
    before_next = idx;
    (h.next == npos ? list.tail : (links_[h.next].*hook).prev) = idx;
    ++list.count;
}

void
WalkBuffer::listErase(SeqList &list, Hook Links::*hook, std::size_t idx)
{
    const Hook &h = links_[idx].*hook;
    (h.prev == npos ? list.head : (links_[h.prev].*hook).next) = h.next;
    (h.next == npos ? list.tail : (links_[h.next].*hook).prev) = h.prev;
    --list.count;
}

void
WalkBuffer::listRepoint(SeqList &list, Hook Links::*hook, std::size_t idx)
{
    const Hook &h = links_[idx].*hook;
    (h.prev == npos ? list.head : (links_[h.prev].*hook).next) = idx;
    (h.next == npos ? list.tail : (links_[h.next].*hook).prev) = idx;
}

void
WalkBuffer::fileScore(std::size_t idx)
{
    const std::uint64_t score = entries_[idx].score;
    if (score < maxDirectScore)
        growScoreBuckets(score);
    SeqList &list = scoreList(idx);
    listInsert(list, &Links::score, idx);
    if (score < maxDirectScore && list.count == 1)
        setScoreBit(score);
}

void
WalkBuffer::unfileScore(std::size_t idx)
{
    const std::uint64_t score = entries_[idx].score;
    SeqList &list = scoreList(idx);
    listErase(list, &Links::score, idx);
    if (score < maxDirectScore && list.count == 0)
        clearScoreBit(score);
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

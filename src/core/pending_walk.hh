/**
 * @file
 * The IOMMU's page-walk request buffer (the "IOMMU buffer").
 *
 * Translation requests that miss the whole TLB hierarchy wait here
 * until a page table walker frees up and the active WalkScheduler
 * selects them (paper §II-B step 6-7). The buffer is the scheduler's
 * lookahead window: its capacity (256 in the baseline, swept in
 * Fig. 14) bounds how far the scheduler can reorder.
 *
 * Storage is a dense vector with swap-with-last extraction, and the
 * buffer maintains four incremental pick indexes so schedulers answer
 * their selection queries without scanning — the hardware proposal
 * updates priorities at *arrival*, not by a sweep at *dispatch*
 * (paper §IV):
 *
 *  - an arrival list threaded in seq order (oldestIndex() and the
 *    aging candidate are list-front questions);
 *  - per-InstructionId bucket lists, reached through one sim::FlatMap
 *    probe (the Batch rule is bucket-head);
 *  - per-score lists under a hierarchical occupancy bitmap (the SJF
 *    rule is first-set-bit, then bucket-head for the (score, seq)
 *    tie-break), plus one overflow list for out-of-range scores;
 *  - per-tenant lists (the QoS schedulers and per-tenant occupancy).
 *
 * All four are the same intrusive, seq-ordered list type over dense
 * indices into the entry vector; an extraction that swaps the last
 * entry into the freed slot rewires each list in O(1), so the external
 * contract (indices into a dense array, invalidated by extract) is
 * unchanged. Entry fields that the indexes key on (seq, instruction,
 * score, ctx) must only change through buffer APIs: rescoreInstruction()
 * re-files a score and recordBypass() maintains the aging watermark —
 * which is why there are no non-const entries()/at() accessors.
 */

#ifndef GPUWALK_CORE_PENDING_WALK_HH
#define GPUWALK_CORE_PENDING_WALK_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"
#include "tlb/translation.hh"

namespace gpuwalk::core {

/**
 * A page-walk request waiting in the IOMMU buffer: the handle of the
 * translation it walks for, plus the scheduling state. The request's
 * instruction ID, context and CU are copied here because schedulers
 * and the buffer's indexes key on them; everything else about the
 * request stays in its table slot.
 */
struct PendingWalk
{
    /** The translation request being walked for. */
    tlb::RequestHandle request = sim::noHandle;

    /** The request's issuing compute unit. */
    std::uint32_t cu = 0;

    /** The request's instruction ID — the scheduler's key. */
    tlb::InstructionId instruction = 0;

    /** Arrival time at the buffer. */
    sim::Tick arrival = 0;

    /** Global arrival sequence number — the FCFS ordering key. */
    std::uint64_t seq = 0;

    /**
     * Estimated total memory accesses to finish *all* pending walks of
     * the issuing instruction — the SJF "job length" (action 1-b).
     * Identical across all buffered requests of one instruction.
     */
    std::uint64_t score = 0;

    /**
     * How many younger requests have been scheduled ahead of this one;
     * drives the anti-starvation aging override.
     */
    std::uint64_t bypassed = 0;

    /**
     * PWC-probe estimate of memory accesses this walk alone needs
     * (1-4), computed at arrival (paper action 1-a).
     */
    unsigned estimatedAccesses = 0;

    /** The request's address space. */
    tlb::ContextId ctx = tlb::defaultContext;

    /**
     * True for IOMMU-generated prefetch walks: they fill the IOMMU
     * TLBs but have no GPU consumer and never enter the demand
     * metrics.
     */
    bool isPrefetch = false;
};

/** Fixed-capacity buffer of pending page-walk requests. */
class WalkBuffer
{
  public:
    /** "No entry" sentinel for the index queries. */
    static constexpr std::size_t npos = ~std::size_t{0};

    explicit WalkBuffer(std::size_t capacity);

    WalkBuffer(WalkBuffer &&) = default;
    WalkBuffer &operator=(WalkBuffer &&) = default;

    std::size_t capacity() const { return capacity_; }

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    bool full() const { return entries_.size() >= capacity_; }

    /** Inserts @p w. @pre !full() @return its current index. */
    std::size_t insert(PendingWalk w);

    /** Removes and returns entry @p idx (swap-with-last erase). */
    PendingWalk extract(std::size_t idx);

    const PendingWalk &at(std::size_t idx) const
    {
        syncBypass();
        return entries_.at(idx);
    }

    /** Index of the oldest (lowest seq) entry. @pre !empty() */
    std::size_t
    oldestIndex() const
    {
        GPUWALK_ASSERT(!empty(), "oldestIndex on empty buffer");
        return arrival_.head;
    }

    /**
     * Index of the oldest entry issued by @p instruction, or npos —
     * the Batch rule in one hash probe.
     */
    std::size_t
    instructionHead(tlb::InstructionId instruction) const
    {
        const auto it = instrIndex_.find(instruction);
        return it == instrIndex_.end() ? npos : buckets_[it->second].head;
    }

    /**
     * Index of the oldest buffered entry of tenant @p ctx, or npos.
     * The per-context lists back the QoS schedulers and the per-tenant
     * occupancy accounting.
     */
    std::size_t
    contextHead(tlb::ContextId ctx) const
    {
        return ctx < ctxLists_.size() ? ctxLists_[ctx].head : npos;
    }

    /** Buffered entries of tenant @p ctx (its walk-buffer share). */
    std::size_t
    contextCount(tlb::ContextId ctx) const
    {
        return ctx < ctxLists_.size() ? ctxLists_[ctx].count : 0;
    }

    /** One past the highest ContextId ever buffered (iteration
     *  bound for per-tenant queries; tenant IDs are small and dense). */
    std::size_t contextLimit() const { return ctxLists_.size(); }

    /** Successor of @p idx in its tenant's seq-ordered list. */
    std::size_t
    contextNext(std::size_t idx) const
    {
        GPUWALK_ASSERT(idx < links_.size(), "bad buffer index");
        return links_[idx].context.next;
    }

    /**
     * Index of tenant @p ctx's entry minimizing (score, seq), or npos
     * — the SJF rule restricted to one address space. O(tenant
     * occupancy): the weighted-share policy trades the global
     * bitmap's O(1) for per-tenant selection.
     */
    std::size_t sjfBestOfContext(tlb::ContextId ctx) const;

    /**
     * Index of the entry minimizing (score, seq) — the SJF rule.
     * @pre !empty()
     */
    std::size_t sjfBestIndex() const;

    /**
     * Index of the oldest entry with bypassed >= @p threshold, or
     * npos — the Aging rule. O(1) when no entry qualifies (a tracked
     * watermark bounds the buffer's maximum bypass count) and when
     * counters are monotone in arrival order, which every dispatch
     * through recordBypass() preserves.
     */
    std::size_t agingCandidate(std::uint64_t threshold) const;

    /**
     * Records that the walk holding sequence number @p dispatched_seq
     * was scheduled: every remaining older entry was just bypassed.
     * The increment saturates — a wrapped counter would reset a
     * starving request's aging priority back to zero. Replaces the
     * schedulers' direct sweep over entries() so the buffer can keep
     * its aging watermark exact.
     *
     * Increments are O(1) here and settled in batches: every API that
     * can observe a counter — at(), entries(), extract(), a
     * plausibly-qualifying agingCandidate() — settles the pending set
     * first, so observed values are exactly what a per-dispatch sweep
     * would have produced. An eager sweep per dispatch gives the same
     * results at 0.78-0.86x the simulator's throughput on deep buffers
     * (EXPERIMENTS.md, "Simulator throughput records").
     */
    void recordBypass(std::uint64_t dispatched_seq);

    /**
     * The current SJF score of @p instruction's buffered walks (they
     * share one), or 0 if none are buffered — the paper's action-1-b
     * read side.
     */
    std::uint64_t
    instructionScore(tlb::InstructionId instruction) const
    {
        const auto it = instrIndex_.find(instruction);
        return it == instrIndex_.end()
                   ? 0
                   : entries_[buckets_[it->second].tail].score;
    }

    /**
     * Sets the score of every buffered walk of @p instruction to
     * @p score, keeping the SJF index exact — the action-1-b write
     * side. No-op when none are buffered.
     */
    void rescoreInstruction(tlb::InstructionId instruction,
                            std::uint64_t score);

    /** Direct read access for schedulers' scan loops. */
    const std::vector<PendingWalk> &
    entries() const
    {
        syncBypass();
        return entries_;
    }

  private:
    /** An entry's neighbours on one list (dense indices). */
    struct Hook
    {
        std::size_t prev = npos;
        std::size_t next = npos;
    };

    /** An entry's place on each of the four pick indexes. */
    struct Links
    {
        Hook arrival;
        Hook instruction;
        Hook score;
        Hook context;
        std::size_t bucket = npos; ///< owning instruction bucket
    };

    /** One intrusive list kept sorted by seq (head = lowest seq),
     *  threaded through one Hook of each member entry. */
    struct SeqList
    {
        std::size_t head = npos;
        std::size_t tail = npos;
        std::size_t count = 0;
    };

    /** Scores at least this large fall back to an overflow list; the
     *  direct-indexed buckets cover every score the PWC estimates can
     *  accumulate in practice. */
    static constexpr std::uint64_t maxDirectScore = std::uint64_t{1}
                                                    << 18;

    /** How many recorded dispatches accumulate before recordBypass()
     *  settles them unprompted. */
    static constexpr std::size_t bypassBatch = 32;

    /** Applies every deferred bypass increment and clears the batch. */
    void flushBypass();

    /**
     * Settles deferred bypass increments before a counter is read.
     * Const because the observers are const; no WalkBuffer object is
     * ever const-qualified, so the cast is the usual lazy-evaluation
     * idiom.
     */
    void
    syncBypass() const
    {
        if (!deferredBypass_.empty())
            const_cast<WalkBuffer *>(this)->flushBypass();
    }

    /** Links entry @p idx into @p list at its seq position (O(1) for
     *  the newest seq, which is every simulator insert). */
    void listInsert(SeqList &list, Hook Links::*hook, std::size_t idx);

    /** Unlinks entry @p idx from @p list. */
    void listErase(SeqList &list, Hook Links::*hook, std::size_t idx);

    /** Points @p list and the neighbours at @p idx, whose hook was
     *  just copied from the entry that swap-with-last moved there. */
    void listRepoint(SeqList &list, Hook Links::*hook, std::size_t idx);

    /** The score list entry @p idx is filed under. */
    SeqList &
    scoreList(std::size_t idx)
    {
        const std::uint64_t score = entries_[idx].score;
        return score < maxDirectScore ? scoreBuckets_[score] : overflow_;
    }

    /** Files / unfiles entry @p idx under its score, keeping the
     *  occupancy bitmap in step with the bucket. */
    void fileScore(std::size_t idx);
    void unfileScore(std::size_t idx);

    void growScoreBuckets(std::uint64_t score);
    void setScoreBit(std::uint64_t score);
    void clearScoreBit(std::uint64_t score);
    std::uint64_t minDirectScore() const;

    std::size_t capacity_;
    std::vector<PendingWalk> entries_;
    std::vector<Links> links_;

    SeqList arrival_;

    // Per-context (tenant) lists, indexed directly by the small dense
    // ContextId.
    std::vector<SeqList> ctxLists_;

    // Per-instruction buckets.
    std::vector<SeqList> buckets_;
    std::vector<std::size_t> freeBuckets_;
    sim::FlatMap<tlb::InstructionId, std::size_t> instrIndex_;

    // Score index: direct-indexed seq-ordered buckets under a two-level
    // occupancy bitmap, plus an overflow list for absurd scores.
    std::vector<SeqList> scoreBuckets_;
    std::vector<std::uint64_t> scoreBitsL0_; ///< bit per score bucket
    std::vector<std::uint64_t> scoreBitsL1_; ///< bit per L0 word
    SeqList overflow_;

    /** Upper bound on bypassed over buffered entries (exact right
     *  after the responsible insert/recordBypass; extraction can leave
     *  it stale high). agingCandidate() tightens it on a confirmed
     *  miss, hence mutable. */
    mutable std::uint64_t maxBypassed_ = 0;

    /** Dispatch seqs recordBypass() has noted but not yet applied to
     *  the older entries' counters. */
    std::vector<std::uint64_t> deferredBypass_;
    std::uint64_t maxDeferredSeq_ = 0;
};

} // namespace gpuwalk::core

#endif // GPUWALK_CORE_PENDING_WALK_HH

/**
 * @file
 * Unit tests for the IOMMU walk-request buffer.
 */

#include <gtest/gtest.h>

#include "core/pending_walk.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::core;

PendingWalk
walk(std::uint64_t seq, tlb::InstructionId instr)
{
    PendingWalk w;
    w.seq = seq;
    w.instruction = instr;
    return w;
}

TEST(WalkBuffer, StartsEmpty)
{
    WalkBuffer buf(4);
    EXPECT_TRUE(buf.empty());
    EXPECT_FALSE(buf.full());
    EXPECT_EQ(buf.capacity(), 4u);
}

TEST(WalkBuffer, InsertUntilFull)
{
    WalkBuffer buf(2);
    buf.insert(walk(0, 1));
    EXPECT_FALSE(buf.full());
    buf.insert(walk(1, 2));
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.size(), 2u);
}

TEST(WalkBuffer, ExtractReturnsRequestedEntry)
{
    WalkBuffer buf(4);
    buf.insert(walk(10, 1));
    buf.insert(walk(11, 2));
    buf.insert(walk(12, 3));
    const auto w = buf.extract(1);
    EXPECT_EQ(w.seq, 11u);
    EXPECT_EQ(buf.size(), 2u);
}

TEST(WalkBuffer, OldestIndexFindsLowestSeq)
{
    WalkBuffer buf(4);
    buf.insert(walk(30, 1));
    buf.insert(walk(10, 2));
    buf.insert(walk(20, 3));
    EXPECT_EQ(buf.at(buf.oldestIndex()).seq, 10u);
    // Extraction reshuffles (swap-erase); oldest remains correct.
    buf.extract(buf.oldestIndex());
    EXPECT_EQ(buf.at(buf.oldestIndex()).seq, 20u);
}

TEST(WalkBuffer, RescoreInstructionTouchesOnlySiblings)
{
    WalkBuffer buf(8);
    buf.insert(walk(0, 7));
    buf.insert(walk(1, 8));
    buf.insert(walk(2, 7));
    buf.rescoreInstruction(7, 42);
    EXPECT_EQ(buf.at(0).score, 42u);
    EXPECT_EQ(buf.at(1).score, 0u);
    EXPECT_EQ(buf.at(2).score, 42u);
}

// --- Pick-index consistency ----------------------------------------
//
// The buffer maintains arrival, per-instruction, and score indexes
// incrementally; these tests pin their answers against brute-force
// scans through churn, swap-erase reshuffles, and rescoring.

/** Brute-force (score, seq) minimum over the dense entries. */
std::size_t
scanSjfBest(const WalkBuffer &buf)
{
    const auto &entries = buf.entries();
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries.size(); ++i) {
        if (entries[i].score < entries[best].score
            || (entries[i].score == entries[best].score
                && entries[i].seq < entries[best].seq)) {
            best = i;
        }
    }
    return best;
}

TEST(WalkBufferIndex, InstructionHeadIsOldestSibling)
{
    WalkBuffer buf(8);
    EXPECT_EQ(buf.instructionHead(7), WalkBuffer::npos);
    buf.insert(walk(5, 7));
    buf.insert(walk(1, 8));
    buf.insert(walk(3, 7));
    buf.insert(walk(2, 7));
    EXPECT_EQ(buf.at(buf.instructionHead(7)).seq, 2u);
    EXPECT_EQ(buf.at(buf.instructionHead(8)).seq, 1u);
    EXPECT_EQ(buf.instructionHead(9), WalkBuffer::npos);

    buf.extract(buf.instructionHead(7));
    EXPECT_EQ(buf.at(buf.instructionHead(7)).seq, 3u);
    buf.extract(buf.instructionHead(7));
    buf.extract(buf.instructionHead(7));
    // All walks of instruction 7 drained; its bucket must be gone.
    EXPECT_EQ(buf.instructionHead(7), WalkBuffer::npos);
    EXPECT_EQ(buf.at(buf.instructionHead(8)).seq, 1u);
}

TEST(WalkBufferIndex, SjfBestTracksScoreAndSeqTieBreak)
{
    WalkBuffer buf(8);
    auto w0 = walk(10, 1);
    w0.score = 5;
    auto w1 = walk(11, 2);
    w1.score = 3;
    auto w2 = walk(12, 3);
    w2.score = 3;
    buf.insert(std::move(w0));
    buf.insert(std::move(w1));
    buf.insert(std::move(w2));
    // Min score 3; tie broken by lower seq.
    EXPECT_EQ(buf.at(buf.sjfBestIndex()).seq, 11u);
    buf.extract(buf.sjfBestIndex());
    EXPECT_EQ(buf.at(buf.sjfBestIndex()).seq, 12u);
    buf.extract(buf.sjfBestIndex());
    EXPECT_EQ(buf.at(buf.sjfBestIndex()).seq, 10u);
}

TEST(WalkBufferIndex, RescoreInstructionMovesSiblingsInSjfOrder)
{
    WalkBuffer buf(8);
    auto a = walk(0, 1);
    a.score = 10;
    auto b = walk(1, 2);
    b.score = 20;
    buf.insert(std::move(a));
    buf.insert(std::move(b));
    EXPECT_EQ(buf.instructionScore(1), 10u);
    EXPECT_EQ(buf.instructionScore(2), 20u);
    EXPECT_EQ(buf.instructionScore(3), 0u);
    EXPECT_EQ(buf.at(buf.sjfBestIndex()).seq, 0u);

    buf.rescoreInstruction(1, 30);
    EXPECT_EQ(buf.instructionScore(1), 30u);
    EXPECT_EQ(buf.at(buf.sjfBestIndex()).seq, 1u);
    buf.rescoreInstruction(3, 99); // absent: no-op
    EXPECT_EQ(buf.instructionScore(3), 0u);
}

TEST(WalkBufferIndex, HugeScoresFallBackToOverflowExactly)
{
    WalkBuffer buf(8);
    auto a = walk(0, 1);
    a.score = ~std::uint64_t{0}; // far past the direct-bucket cap
    auto b = walk(1, 2);
    b.score = (std::uint64_t{1} << 60) + 1;
    buf.insert(std::move(a));
    buf.insert(std::move(b));
    EXPECT_EQ(buf.at(buf.sjfBestIndex()).seq, 1u);
    auto c = walk(2, 3);
    c.score = 7; // any in-range score beats every overflow score
    buf.insert(std::move(c));
    EXPECT_EQ(buf.at(buf.sjfBestIndex()).seq, 2u);
}

TEST(WalkBufferIndex, AgingCandidateIsOldestQualifier)
{
    WalkBuffer buf(8);
    EXPECT_EQ(buf.agingCandidate(4), WalkBuffer::npos);
    auto a = walk(10, 1);
    a.bypassed = 3;
    auto b = walk(5, 2);
    b.bypassed = 9;
    auto c = walk(7, 3);
    c.bypassed = 100;
    buf.insert(std::move(a));
    buf.insert(std::move(b));
    buf.insert(std::move(c));
    // Oldest entry meeting the threshold, not the most-bypassed one.
    EXPECT_EQ(buf.at(buf.agingCandidate(4)).seq, 5u);
    EXPECT_EQ(buf.at(buf.agingCandidate(50)).seq, 7u);
    EXPECT_EQ(buf.agingCandidate(1000), WalkBuffer::npos);

    // After extracting the qualifiers the (stale-high) watermark must
    // tighten rather than keep reporting candidates.
    buf.extract(buf.agingCandidate(4));
    buf.extract(buf.agingCandidate(4));
    EXPECT_EQ(buf.agingCandidate(4), WalkBuffer::npos);
    EXPECT_EQ(buf.at(buf.agingCandidate(3)).seq, 10u);
}

TEST(WalkBufferIndex, RecordBypassIncrementsOnlyOlderEntries)
{
    WalkBuffer buf(8);
    buf.insert(walk(10, 1));
    buf.insert(walk(20, 2));
    buf.insert(walk(30, 3));
    buf.recordBypass(25);
    EXPECT_EQ(buf.at(0).bypassed, 1u);
    EXPECT_EQ(buf.at(1).bypassed, 1u);
    EXPECT_EQ(buf.at(2).bypassed, 0u);
    buf.recordBypass(15);
    EXPECT_EQ(buf.at(0).bypassed, 2u);
    EXPECT_EQ(buf.at(1).bypassed, 1u);

    // Saturated counters stay saturated.
    auto s = walk(1, 4);
    s.bypassed = ~std::uint64_t{0};
    buf.insert(std::move(s));
    buf.recordBypass(40);
    EXPECT_EQ(buf.at(buf.oldestIndex()).bypassed, ~std::uint64_t{0});
}

TEST(WalkBufferIndex, DeferredBypassSettlesExactlyAtEveryObserver)
{
    // recordBypass() batches its increments; counters must still read
    // exactly as if each dispatch had swept immediately — across the
    // internal batch-full flush, an extract mid-batch, and an
    // out-of-order insert below a pending dispatch seq.
    WalkBuffer buf(64);
    for (std::uint64_t s = 0; s < 10; ++s)
        buf.insert(walk(s, s % 4));

    // Well past any internal batch size, with no reads in between.
    for (int i = 0; i < 40; ++i)
        buf.recordBypass(10);

    // Extract without touching at()/entries() first: the oldest entry
    // must carry all 40 increments out with it.
    const PendingWalk oldest = buf.extract(buf.oldestIndex());
    EXPECT_EQ(oldest.seq, 0u);
    EXPECT_EQ(oldest.bypassed, 40u);

    // Three more dispatches bypassing only seqs 1-4, then an insert
    // that reuses the freed seq 0 — below the pending dispatch seqs,
    // so it must not inherit their increments.
    for (int i = 0; i < 3; ++i)
        buf.recordBypass(5);
    buf.insert(walk(0, 7));

    auto bypassedOfSeq = [&](std::uint64_t seq) -> std::uint64_t {
        for (std::size_t i = 0; i < buf.size(); ++i)
            if (buf.at(i).seq == seq)
                return buf.at(i).bypassed;
        ADD_FAILURE() << "seq " << seq << " not found";
        return 0;
    };
    EXPECT_EQ(bypassedOfSeq(0), 0u);
    EXPECT_EQ(bypassedOfSeq(1), 43u);
    EXPECT_EQ(bypassedOfSeq(4), 43u);
    EXPECT_EQ(bypassedOfSeq(5), 40u);
    EXPECT_EQ(bypassedOfSeq(9), 40u);

    // A batched settle saturates exactly where stepwise increments
    // would have.
    WalkBuffer sat(8);
    auto nearSat = walk(0, 1);
    nearSat.bypassed = ~std::uint64_t{0} - 2;
    sat.insert(std::move(nearSat));
    sat.insert(walk(1, 2));
    for (int i = 0; i < 5; ++i)
        sat.recordBypass(3);
    EXPECT_EQ(sat.at(sat.oldestIndex()).bypassed, ~std::uint64_t{0});
    EXPECT_EQ(sat.agingCandidate(5), sat.oldestIndex());
}

TEST(WalkBufferIndex, IndexesSurviveRandomChurn)
{
    // Deterministic pseudo-random churn; every query cross-checked
    // against a dense scan after each operation.
    WalkBuffer buf(32);
    std::uint64_t state = 0x12345678, next_seq = 0;
    auto rnd = [&state](std::uint64_t n) {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return (state * 0x2545f4914f6cdd1dull) % n;
    };
    for (int step = 0; step < 5000; ++step) {
        if (!buf.full() && (buf.empty() || rnd(100) < 55)) {
            auto w = walk(next_seq++, rnd(8));
            w.score = rnd(40);
            w.bypassed = rnd(6);
            buf.insert(std::move(w));
        } else {
            buf.extract(rnd(buf.size()));
        }
        if (buf.empty())
            continue;
        // Oldest == min seq by scan.
        std::size_t oldest = 0;
        for (std::size_t i = 1; i < buf.size(); ++i) {
            if (buf.at(i).seq < buf.at(oldest).seq)
                oldest = i;
        }
        ASSERT_EQ(buf.oldestIndex(), oldest);
        ASSERT_EQ(buf.sjfBestIndex(), scanSjfBest(buf));
        // Instruction heads == oldest sibling by scan.
        for (tlb::InstructionId instr = 0; instr < 8; ++instr) {
            std::size_t want = WalkBuffer::npos;
            for (std::size_t i = 0; i < buf.size(); ++i) {
                if (buf.at(i).instruction != instr)
                    continue;
                if (want == WalkBuffer::npos
                    || buf.at(i).seq < buf.at(want).seq) {
                    want = i;
                }
            }
            ASSERT_EQ(buf.instructionHead(instr), want);
        }
        // Aging candidate == oldest qualifier by scan.
        const std::uint64_t threshold = 3;
        std::size_t aged = WalkBuffer::npos;
        for (std::size_t i = 0; i < buf.size(); ++i) {
            if (buf.at(i).bypassed < threshold)
                continue;
            if (aged == WalkBuffer::npos
                || buf.at(i).seq < buf.at(aged).seq) {
                aged = i;
            }
        }
        ASSERT_EQ(buf.agingCandidate(threshold), aged);
    }
}

TEST(WalkBufferIndex, RescoreResyncsSjfIndex)
{
    WalkBuffer buf(8);
    auto a = walk(0, 1);
    a.score = 50;
    auto b = walk(1, 2);
    b.score = 10;
    buf.insert(std::move(a));
    buf.insert(std::move(b));
    EXPECT_EQ(buf.at(buf.sjfBestIndex()).seq, 1u);
    buf.rescoreInstruction(1, 5);
    EXPECT_EQ(buf.at(buf.sjfBestIndex()).seq, 0u);
    EXPECT_EQ(buf.instructionScore(1), 5u);
}

TEST(WalkBufferDeathTest, OverflowPanics)
{
    WalkBuffer buf(1);
    buf.insert(walk(0, 1));
    EXPECT_DEATH(buf.insert(walk(1, 2)), "overflow");
}

TEST(WalkBufferDeathTest, BadIndexPanics)
{
    WalkBuffer buf(2);
    buf.insert(walk(0, 1));
    EXPECT_DEATH(buf.extract(5), "bad buffer index");
}

TEST(WalkBufferDeathTest, ZeroCapacityPanics)
{
    EXPECT_DEATH(WalkBuffer(0), "capacity");
}

} // namespace

/**
 * @file
 * Unit tests for the walk schedulers — the paper's core mechanism.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <set>

#include "core/fcfs_scheduler.hh"
#include "core/random_scheduler.hh"
#include "core/simt_aware_scheduler.hh"
#include "core/walk_scheduler.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::core;

PendingWalk
walk(std::uint64_t seq, tlb::InstructionId instr, std::uint64_t score)
{
    PendingWalk w;
    w.seq = seq;
    w.instruction = instr;
    w.score = score;
    return w;
}

TEST(FcfsScheduler, PicksOldest)
{
    FcfsScheduler sched;
    WalkBuffer buf(8);
    buf.insert(walk(5, 1, 0));
    buf.insert(walk(2, 2, 0));
    buf.insert(walk(9, 3, 0));
    EXPECT_EQ(buf.at(sched.selectNext(buf)).seq, 2u);
}

TEST(FcfsScheduler, IgnoresScores)
{
    FcfsScheduler sched;
    EXPECT_FALSE(sched.needsScores());
    WalkBuffer buf(8);
    buf.insert(walk(5, 1, 1));
    buf.insert(walk(2, 2, 100));
    EXPECT_EQ(buf.at(sched.selectNext(buf)).seq, 2u);
}

TEST(RandomScheduler, DeterministicPerSeed)
{
    WalkBuffer buf(8);
    for (std::uint64_t i = 0; i < 8; ++i)
        buf.insert(walk(i, i, 0));
    RandomScheduler a(77), b(77), c(99);
    std::vector<std::size_t> pa, pb, pc;
    for (int i = 0; i < 32; ++i) {
        pa.push_back(a.selectNext(buf));
        pb.push_back(b.selectNext(buf));
        pc.push_back(c.selectNext(buf));
    }
    EXPECT_EQ(pa, pb);
    EXPECT_NE(pa, pc);
}

TEST(RandomScheduler, CoversTheWholeBuffer)
{
    WalkBuffer buf(16);
    for (std::uint64_t i = 0; i < 16; ++i)
        buf.insert(walk(i, i, 0));
    RandomScheduler sched(3);
    std::set<std::size_t> picked;
    for (int i = 0; i < 500; ++i)
        picked.insert(sched.selectNext(buf));
    EXPECT_EQ(picked.size(), 16u);
}

TEST(SimtAware, SjfPicksLowestScore)
{
    SimtAwareScheduler sched;
    WalkBuffer buf(8);
    buf.insert(walk(0, 1, 50));
    buf.insert(walk(1, 2, 10));
    buf.insert(walk(2, 3, 30));
    EXPECT_EQ(buf.at(sched.selectNext(buf)).seq, 1u);
}

TEST(SimtAware, ScoreTieBrokenByAge)
{
    SimtAwareScheduler sched;
    WalkBuffer buf(8);
    buf.insert(walk(7, 1, 10));
    buf.insert(walk(3, 2, 10));
    EXPECT_EQ(buf.at(sched.selectNext(buf)).seq, 3u);
}

TEST(SimtAware, BatchesWithLastDispatchedInstruction)
{
    SimtAwareScheduler sched;
    WalkBuffer buf(8);
    buf.insert(walk(0, 1, 5));
    buf.insert(walk(1, 2, 1));  // cheapest
    buf.insert(walk(2, 1, 5));
    buf.insert(walk(3, 1, 5));

    // First pick: SJF -> instruction 2.
    auto idx = sched.selectNext(buf);
    EXPECT_EQ(buf.at(idx).instruction, 2u);
    auto w = buf.extract(idx);
    sched.onDispatch(buf, w);

    // Instruction 2 has no more requests: falls back to SJF among
    // instruction 1's walks, oldest first.
    idx = sched.selectNext(buf);
    EXPECT_EQ(buf.at(idx).instruction, 1u);
    EXPECT_EQ(buf.at(idx).seq, 0u);
    w = buf.extract(idx);
    sched.onDispatch(buf, w);

    // Now batching keeps picking instruction 1, oldest first, even if
    // a cheaper instruction arrives.
    buf.insert(walk(9, 5, 0));
    idx = sched.selectNext(buf);
    EXPECT_EQ(buf.at(idx).instruction, 1u);
    EXPECT_EQ(buf.at(idx).seq, 2u);
    EXPECT_GE(sched.batchPicks(), 1u);
}

TEST(SimtAware, SjfOnlyVariantDoesNotBatch)
{
    SimtAwareScheduler sched(SchedulerKind::SjfOnly);
    EXPECT_EQ(sched.name(), "sjf-only");

    WalkBuffer buf(8);
    buf.insert(walk(0, 1, 5));
    buf.insert(walk(1, 1, 5));
    auto w = buf.extract(sched.selectNext(buf));
    sched.onDispatch(buf, w);
    buf.insert(walk(2, 9, 1)); // cheaper new instruction
    // Without batching, the cheap newcomer wins over the sibling.
    EXPECT_EQ(buf.at(sched.selectNext(buf)).instruction, 9u);
}

TEST(SimtAware, BatchOnlyVariantIgnoresScores)
{
    SimtAwareScheduler sched(SchedulerKind::BatchOnly);
    EXPECT_EQ(sched.name(), "batch-only");
    EXPECT_FALSE(sched.needsScores());

    WalkBuffer buf(8);
    buf.insert(walk(1, 1, 100));
    buf.insert(walk(2, 2, 1));
    // No last instruction yet: FCFS order, not score order.
    EXPECT_EQ(buf.at(sched.selectNext(buf)).seq, 1u);
}

TEST(SimtAware, AgingOverridesEverything)
{
    SimtSchedulerConfig cfg;
    cfg.agingThreshold = 3;
    SimtAwareScheduler sched(SchedulerKind::SimtAware, cfg);

    WalkBuffer buf(8);
    buf.insert(walk(0, 1, 100)); // expensive, will starve
    // Dispatch three cheap younger requests; each bypass ages seq 0.
    for (std::uint64_t i = 1; i <= 3; ++i) {
        buf.insert(walk(i, 10 + i, 1));
        auto idx = sched.selectNext(buf);
        EXPECT_EQ(buf.at(idx).seq, i);
        auto w = buf.extract(idx);
        sched.onDispatch(buf, w);
    }
    EXPECT_EQ(buf.at(0).bypassed, 3u);

    // Now the starved request must win despite its score and despite
    // batching possibilities.
    buf.insert(walk(4, 13, 1)); // same instr as last dispatched
    const auto idx = sched.selectNext(buf);
    EXPECT_EQ(buf.at(idx).seq, 0u);
    EXPECT_EQ(sched.agingOverrides(), 1u);
}

TEST(SimtAware, DispatchUpdatesBypassOnlyForOlder)
{
    SimtAwareScheduler sched;
    WalkBuffer buf(8);
    buf.insert(walk(5, 1, 1));
    buf.insert(walk(6, 2, 2));
    buf.insert(walk(7, 3, 3));
    // Dispatch seq 6: only seq 5 was bypassed.
    auto w = buf.extract(1);
    sched.onDispatch(buf, w);
    for (const auto &e : buf.entries()) {
        if (e.seq == 5)
            EXPECT_EQ(e.bypassed, 1u);
        else
            EXPECT_EQ(e.bypassed, 0u);
    }
}

TEST(WalkSchedulerBase, BypassCounterSaturatesInsteadOfWrapping)
{
    // A wrapped bypass counter would reset a starving request's aging
    // priority to zero — the exact starvation the counter exists to
    // prevent.
    SimtAwareScheduler sched;
    WalkBuffer buf(8);
    auto starving = walk(0, 1, 100);
    starving.bypassed = ~std::uint64_t{0}; // already saturated
    buf.insert(std::move(starving));
    buf.insert(walk(1, 2, 1));

    auto w = buf.extract(1); // dispatch the younger request
    sched.onDispatch(buf, w);
    EXPECT_EQ(buf.at(0).bypassed, ~std::uint64_t{0})
        << "saturated counter wrapped to zero";
}

TEST(SimtAware, SaturatedBypassStillTriggersAging)
{
    SimtSchedulerConfig cfg;
    cfg.agingThreshold = 3;
    SimtAwareScheduler sched(SchedulerKind::SimtAware, cfg);
    WalkBuffer buf(8);
    auto starving = walk(0, 1, 100);
    starving.bypassed = ~std::uint64_t{0};
    buf.insert(std::move(starving));
    buf.insert(walk(1, 2, 1)); // cheap, would win on SJF

    EXPECT_EQ(buf.at(sched.selectNext(buf)).seq, 0u);
    EXPECT_EQ(sched.agingOverrides(), 1u);
}

TEST(SchedulerAging, TracksAgingMatrix)
{
    // FCFS and Random have no aging override, so they skip the bypass
    // bookkeeping entirely and advertise that to the auditor; the
    // SIMT-aware family maintains the counters for its override.
    EXPECT_FALSE(FcfsScheduler{}.tracksAging());
    EXPECT_FALSE(RandomScheduler{1}.tracksAging());
    for (auto kind : {SchedulerKind::SimtAware, SchedulerKind::SjfOnly,
                      SchedulerKind::BatchOnly})
        EXPECT_TRUE(SimtAwareScheduler{kind}.tracksAging());
}

TEST(FcfsScheduler, DispatchLeavesBypassCountersAtZero)
{
    // FCFS always extracts the oldest, so nothing is ever bypassed —
    // and its onDispatch must not touch the counters either way.
    // Random does bypass older entries, but with no aging override it
    // keeps no counters, as tracksAging() == false promises.
    FcfsScheduler fcfs;
    RandomScheduler random(5);
    for (WalkScheduler *sched :
         std::initializer_list<WalkScheduler *>{&fcfs, &random}) {
        WalkBuffer buf(8);
        for (std::uint64_t i = 0; i < 6; ++i)
            buf.insert(walk(i, i + 1, 0));
        while (buf.size() > 1) {
            auto w = buf.extract(sched->selectNext(buf));
            sched->onDispatch(buf, w);
            for (const auto &e : buf.entries())
                EXPECT_EQ(e.bypassed, 0u) << sched->name();
        }
    }
}

TEST(SimtAware, FailedBatchProbeClearsStaleLastInstruction)
{
    SimtAwareScheduler sched;
    WalkBuffer buf(8);
    buf.insert(walk(0, 1, 5));
    auto w = buf.extract(sched.selectNext(buf));
    sched.onDispatch(buf, w);
    ASSERT_TRUE(sched.lastInstruction().has_value());
    EXPECT_EQ(*sched.lastInstruction(), 1u);

    // Instruction 1's walks have drained; the next probe finds no
    // sibling and must drop the stale ID instead of letting it claim
    // future batch picks.
    buf.insert(walk(1, 2, 5));
    (void)sched.selectNext(buf);
    EXPECT_FALSE(sched.lastInstruction().has_value());
}

TEST(SimtAware, SuccessfulBatchProbeKeepsLastInstruction)
{
    SimtAwareScheduler sched;
    WalkBuffer buf(8);
    buf.insert(walk(0, 1, 5));
    buf.insert(walk(1, 1, 5)); // sibling stays buffered
    auto w = buf.extract(sched.selectNext(buf));
    sched.onDispatch(buf, w);

    const auto idx = sched.selectNext(buf);
    EXPECT_EQ(buf.at(idx).instruction, 1u);
    ASSERT_TRUE(sched.lastInstruction().has_value());
    EXPECT_EQ(*sched.lastInstruction(), 1u);
    EXPECT_EQ(sched.lastPickReason(), PickReason::Batch);
}

TEST(SchedulerFactory, CreatesAllKinds)
{
    for (auto kind :
         {SchedulerKind::Fcfs, SchedulerKind::Random,
          SchedulerKind::SjfOnly, SchedulerKind::BatchOnly,
          SchedulerKind::SimtAware, SchedulerKind::WeightedShare}) {
        auto sched = makeScheduler(kind, 1);
        ASSERT_NE(sched, nullptr);
        EXPECT_EQ(sched->name(), toString(kind));
        EXPECT_EQ(schedulerKindFromString(toString(kind)), kind);
    }
}

TEST(SchedulerFactoryDeathTest, RemovedKindsAreUnknown)
{
    for (const char *name : {"fair-share", "oldest-job", "srpt",
                             "token-bucket", "token"}) {
        EXPECT_EXIT(schedulerKindFromString(name),
                    ::testing::ExitedWithCode(1), "unknown scheduler")
            << name;
    }
}

TEST(SimtAwareDeathTest, NonSimtKindIsFatal)
{
    // The kind picks the rules; a kind with neither rule is a bug.
    for (auto kind : {SchedulerKind::Fcfs, SchedulerKind::Random,
                      SchedulerKind::WeightedShare}) {
        EXPECT_DEATH(SimtAwareScheduler{kind},
                     "not a SIMT-aware scheduler kind")
            << toString(kind);
    }
}

TEST(SchedulerFactory, NameRoundTripAliases)
{
    EXPECT_EQ(schedulerKindFromString("simt"), SchedulerKind::SimtAware);
    EXPECT_EQ(schedulerKindFromString("sjf"), SchedulerKind::SjfOnly);
    EXPECT_EQ(schedulerKindFromString("batch"),
              SchedulerKind::BatchOnly);
}

TEST(SchedulerFactory, NeedsScoresMatrix)
{
    EXPECT_FALSE(makeScheduler(SchedulerKind::Fcfs)->needsScores());
    EXPECT_FALSE(makeScheduler(SchedulerKind::Random)->needsScores());
    EXPECT_TRUE(makeScheduler(SchedulerKind::SjfOnly)->needsScores());
    EXPECT_FALSE(makeScheduler(SchedulerKind::BatchOnly)->needsScores());
    EXPECT_TRUE(makeScheduler(SchedulerKind::SimtAware)->needsScores());
}

} // namespace

/**
 * @file
 * Property/fuzz tests for the calendar-queue event core.
 *
 * A naive reference queue — a flat vector scanned for the
 * (when, priority, seq) minimum on every pop — defines the ordering
 * contract. Randomized schedule/run interleavings drive the real
 * EventQueue and the reference side by side and require identical
 * execution histories, covering the spots where a calendar queue can
 * betray the contract while a heap cannot:
 *
 *  - same-tick FIFO + priority ordering inside one bucket,
 *  - run(limit) draining semantics with the window part-full,
 *  - far-future events (overflow tier) and bucket wraparound, where a
 *    migrated event must still order by seq against later-scheduled
 *    bucket residents of the same tick,
 *  - rescheduling from within a running callback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace {

using gpuwalk::sim::EventPriority;
using gpuwalk::sim::EventQueue;
using gpuwalk::sim::Tick;

constexpr Tick kWindow = EventQueue::windowTicks;

/**
 * Ordering oracle: O(n) minimum scan over (when, priority, seq).
 * Too slow to simulate with, obviously correct — which is the point.
 */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, int tag,
             EventPriority prio = EventPriority::Default)
    {
        EXPECT_GE(when, now_) << "reference misuse: scheduling in past";
        pending_.push_back(
            {when, static_cast<int>(prio), nextSeq_++, tag});
    }

    /** Tick of the earliest pending event, or maxTick when empty. */
    Tick
    nextWhen() const
    {
        Tick best = gpuwalk::sim::maxTick;
        for (const auto &e : pending_)
            best = std::min(best, e.when);
        return best;
    }

    /** Pops and records the minimum; @return its tag, or -1 if empty. */
    int
    runOne(std::vector<std::pair<Tick, int>> &history)
    {
        if (pending_.empty())
            return -1;
        auto best = pending_.begin();
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (std::tie(it->when, it->prio, it->seq)
                < std::tie(best->when, best->prio, best->seq)) {
                best = it;
            }
        }
        now_ = best->when;
        history.emplace_back(best->when, best->tag);
        const int tag = best->tag;
        pending_.erase(best);
        return tag;
    }

    void
    clampTo(Tick limit)
    {
        if (now_ < limit)
            now_ = limit;
    }

    Tick now() const { return now_; }
    std::size_t pending() const { return pending_.size(); }

  private:
    struct Entry
    {
        Tick when;
        int prio;
        std::uint64_t seq;
        int tag;
    };

    std::vector<Entry> pending_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/** A rearm the real queue already performed, waiting to be replayed
 *  into the reference when the reference executes the parent. */
struct RearmPlan
{
    Tick delay;
    EventPriority prio;
    int childTag;
};

/**
 * Drives both queues through one random interleaving and compares
 * histories exactly. Delays are drawn to stress every tier: zero
 * (same-tick), near (in-window), the window boundary itself, and far
 * future (overflow + wraparound after migration).
 *
 * Rearm mirroring is causal: when the real queue executes a parent
 * whose callback reschedules, the child's parameters are recorded as a
 * plan, and the reference schedules its copy of the child only when it
 * pops its copy of the parent. Mirroring at real-queue execution time
 * instead would let the reference run a same-tick Early child *before*
 * the parent's same-tick successors — an order no causal queue can
 * produce. Because the reference pops in the same order the real queue
 * executed (that is the property under test), the schedule-call order
 * — and therefore relative sequence order — stays identical on both
 * sides.
 */
void
fuzzOnce(std::uint32_t seed, bool rescheduleFromCallback)
{
    std::mt19937 rng(seed);
    EventQueue eq;
    ReferenceQueue ref;
    std::vector<std::pair<Tick, int>> got;
    std::vector<std::pair<Tick, int>> want;
    std::map<int, RearmPlan> plans; // parent tag -> pending mirror

    auto draw_delay = [&rng]() -> Tick {
        switch (rng() % 8) {
          case 0: return 0;
          case 1: return rng() % 4;
          case 2: return rng() % 1000;
          case 3: return rng() % kWindow;
          case 4: return kWindow - 1 + rng() % 3; // straddle boundary
          case 5: return kWindow + rng() % kWindow;
          case 6: return kWindow * (2 + rng() % 6) + rng() % 97;
          default: return 25000 + rng() % 500; // an IOMMU-ish hop
        }
    };
    auto draw_prio = [&rng] {
        switch (rng() % 4) {
          case 0: return EventPriority::Early;
          case 1: return EventPriority::Late;
          default: return EventPriority::Default;
        }
    };

    // What a fired callback touches, behind one pointer so that its
    // capture fits a pooled event inline.
    struct Shared
    {
        EventQueue &eq;
        std::vector<std::pair<Tick, int>> &got;
        std::map<int, RearmPlan> &plans;
        std::function<int(Tick, EventPriority)> scheduleEq;
    } shared{eq, got, plans, {}};

    int next_tag = 0;
    // Schedules tag on the real queue only; mirror_fresh pairs it on
    // the reference for top-level schedules, plans do it for rearms.
    shared.scheduleEq = [&](Tick when, EventPriority prio) -> int {
        const int tag = next_tag++;
        const bool rearm = rescheduleFromCallback && rng() % 4 == 0;
        const Tick rearm_delay = draw_delay();
        const EventPriority rearm_prio = draw_prio();
        Shared *sh = &shared;
        eq.schedule(when, [sh, tag, rearm, rearm_delay, rearm_prio] {
            sh->got.emplace_back(sh->eq.now(), tag);
            if (rearm) {
                const int child =
                    sh->scheduleEq(sh->eq.now() + rearm_delay, rearm_prio);
                sh->plans.emplace(
                    tag, RearmPlan{rearm_delay, rearm_prio, child});
            }
        }, prio);
        return tag;
    };

    // Pops one reference event and replays any rearm plan its parent
    // left behind. @return false when the reference is empty.
    auto ref_run_one = [&]() -> bool {
        const int tag = ref.runOne(want);
        if (tag < 0)
            return false;
        auto it = plans.find(tag);
        if (it != plans.end()) {
            ref.schedule(ref.now() + it->second.delay,
                         it->second.childTag, it->second.prio);
            plans.erase(it);
        }
        return true;
    };

    for (int round = 0; round < 40; ++round) {
        // Burst of fresh schedules, paired on both queues.
        const unsigned burst = 1 + rng() % 12;
        for (unsigned i = 0; i < burst; ++i) {
            const Tick when = eq.now() + draw_delay();
            const EventPriority prio = draw_prio();
            const int tag = shared.scheduleEq(when, prio);
            ref.schedule(when, tag, prio);
        }

        // Drain a random amount, in one of three modes.
        switch (rng() % 3) {
          case 0: {
            const std::uint64_t n = rng() % 8;
            for (std::uint64_t k = 0; k < n; ++k) {
                // Sequenced explicitly: the real queue must execute
                // (and record plans) before the reference follows.
                const bool ran_eq = eq.runOne();
                const bool ran_ref = ref_run_one();
                ASSERT_EQ(ran_eq, ran_ref);
            }
            break;
          }
          case 1: {
            // Time-bounded drain: the real queue runs to the limit
            // first, then the reference follows; every plan a
            // below-limit parent recorded is replayed before the
            // reference pops past it.
            const Tick limit = eq.now() + draw_delay();
            const Tick a = eq.run(limit);
            while (ref.nextWhen() <= limit)
                ASSERT_TRUE(ref_run_one());
            ref.clampTo(limit);
            ASSERT_EQ(a, ref.now());
            break;
          }
          default: {
            const bool ran_eq = eq.runOne();
            const bool ran_ref = ref_run_one();
            ASSERT_EQ(ran_eq, ran_ref);
            break;
          }
        }
        ASSERT_EQ(got, want) << "histories diverged in round " << round
                             << " (seed " << seed << ")";
        ASSERT_EQ(eq.pending(), ref.pending());
        ASSERT_EQ(eq.now(), ref.now());
    }

    // Full drain must finish in perfect agreement.
    while (eq.runOne())
        ASSERT_TRUE(ref_run_one());
    ASSERT_FALSE(ref_run_one());
    ASSERT_EQ(got, want) << "final histories diverged (seed " << seed
                         << ")";
    EXPECT_TRUE(plans.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.overflowPending(), 0u);
}

TEST(CalendarQueueFuzz, MatchesReferenceAcrossSeeds)
{
    for (std::uint32_t seed = 1; seed <= 12; ++seed)
        fuzzOnce(seed, /*rescheduleFromCallback=*/false);
}

TEST(CalendarQueueFuzz, MatchesReferenceWithCallbackReschedules)
{
    for (std::uint32_t seed = 100; seed <= 112; ++seed)
        fuzzOnce(seed, /*rescheduleFromCallback=*/true);
}

TEST(CalendarQueue, SameTickFifoAcrossTiers)
{
    // Seq ordering must survive migration: events scheduled *later*
    // but near-future share a tick with an earlier far-future event
    // once time advances — the migrated event still runs first (lower
    // seq), even though it reaches the bucket second.
    EventQueue eq;
    std::vector<int> order;
    const Tick target = kWindow + 50;
    eq.schedule(target, [&] { order.push_back(1); }); // overflow tier
    EXPECT_EQ(eq.overflowPending(), 1u);

    // Advance into the window so `target` becomes bucket-resident.
    eq.schedule(100, [&] {
        eq.schedule(target, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(CalendarQueue, PriorityBeatsSeqAfterMigration)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick target = kWindow + 50;
    eq.schedule(target, [&] { order.push_back(2); }); // low seq, Default
    eq.schedule(100, [&] {
        eq.schedule(target, [&] { order.push_back(1); },
                    EventPriority::Early);
        eq.schedule(target, [&] { order.push_back(3); },
                    EventPriority::Late);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CalendarQueue, BucketWraparoundKeepsTickOrder)
{
    // Ticks t and t + windowTicks map to the same bucket index; the
    // two-tier split must keep them apart and in time order.
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick base : {Tick(17), Tick(17) + kWindow, Tick(17) + 2 * kWindow})
        eq.schedule(base, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], 17u);
    EXPECT_EQ(fired[1], 17u + kWindow);
    EXPECT_EQ(fired[2], 17u + 2 * kWindow);
}

TEST(CalendarQueue, RunLimitStopsInsideTheOverflowGap)
{
    // limit falls between the drained window and a far-future event:
    // run(limit) must not execute the far event, and now() must land
    // exactly on the limit.
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(kWindow * 4, [&] { ++fired; });
    EXPECT_EQ(eq.run(kWindow * 2), kWindow * 2);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(CalendarQueue, DrainAfterLimitClampKeepsWindowConsistent)
{
    // Regression guard for the mixed-tick-bucket hazard: clamp now()
    // forward with run(limit), then schedule fresh events whose bucket
    // indices collide with pre-clamp residents modulo the window.
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(kWindow + 5, [&] { fired.push_back(eq.now()); });
    eq.run(10); // clamps now to 10; resident stays pending
    eq.schedule(15, [&] { fired.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{15, kWindow + 5}));
}

TEST(CalendarQueue, ManyEventsOneTickStaysFifoAtScale)
{
    EventQueue eq;
    std::vector<int> order;
    constexpr int n = 4096; // forces pool growth past several slabs
    for (int i = 0; i < n; ++i)
        eq.schedule(123, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(eq.executed(), static_cast<std::uint64_t>(n));
}

} // namespace

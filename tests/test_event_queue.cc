/**
 * @file
 * Unit tests for the deterministic discrete-event queue.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace {

using gpuwalk::sim::EventPriority;
using gpuwalk::sim::EventQueue;
using gpuwalk::sim::Tick;

/** Counts live copies and moves to prove a pooled capture is moved
 *  into its node once and destroyed once. */
struct Counted
{
    static int live;
    static int moves;

    Counted() { ++live; }
    Counted(const Counted &) { ++live; }
    Counted(Counted &&) noexcept
    {
        ++live;
        ++moves;
    }
    ~Counted() { --live; }
};

int Counted::live = 0;
int Counted::moves = 0;

/** Intrusive test event that bumps a counter (if any) when fired. */
struct CountingEvent final : gpuwalk::sim::Event
{
    int *fired = nullptr;
    void
    process() override
    {
        if (fired)
            ++*fired;
    }
};

/** Intrusive test event appending a tag to a shared history. */
struct RecordingEvent final : gpuwalk::sim::Event
{
    RecordingEvent(std::vector<int> *order_out, int tag_value)
        : order(order_out), tag(tag_value)
    {}
    std::vector<int> *order;
    int tag;
    void process() override { order->push_back(tag); }
};

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, EqualTickEventsRunInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PriorityBreaksTiesBeforeInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Late);
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(3); }, EventPriority::Early);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(EventQueue, ScheduleInIsRelativeToNow)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(50, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueue, EventsCanScheduleAtCurrentTick)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        eq.schedule(10, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.run(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunAdvancesToLimitWhenQueueDrainsEarly)
{
    // Regression: run(limit) used to leave now() at the last executed
    // event when the queue drained before the limit, so time-bounded
    // callers observed end times that depended on event population.
    EventQueue eq;
    eq.schedule(10, [] {});
    EXPECT_EQ(eq.run(100), 100u);
    EXPECT_EQ(eq.now(), 100u);

    // An empty queue also advances straight to the bound...
    EXPECT_EQ(eq.run(250), 250u);
    EXPECT_EQ(eq.now(), 250u);

    // ...and scheduling at the observed end time is legal.
    int fired = 0;
    eq.schedule(250, [&] { ++fired; });
    eq.run(250);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, UnboundedRunKeepsNowAtLastEvent)
{
    EventQueue eq;
    eq.schedule(42, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 42u);
}

TEST(EventQueue, RunEventsBoundsExecution)
{
    EventQueue eq;
    int fired = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&] { ++fired; });
    EXPECT_EQ(eq.runEvents(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, ExecutedCountsAllEvents)
{
    EventQueue eq;
    for (Tick t = 1; t <= 5; ++t)
        eq.schedule(t, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

// Regression battery for the documented `when >= now()` precondition:
// both the pooled-callable and the intrusive schedule paths must refuse
// to enqueue into the past, at any displacement — a pooled node placed
// behind now() would otherwise sit in a bucket the dispatch scan never
// revisits and leak silently.

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(EventQueueDeathTest, SchedulingIntrusiveEventInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    CountingEvent ev;
    EXPECT_DEATH(eq.schedule(99, ev), "past");
}

TEST(EventQueueDeathTest, SchedulingInThePastPanicsBeyondTheWindow)
{
    // A displacement larger than the bucket window must not wrap into
    // a plausible-looking future bucket.
    EventQueue eq;
    eq.schedule(EventQueue::windowTicks * 3, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(EventQueue::windowTicks, [] {}), "past");
}

TEST(EventQueueDeathTest, DoubleSchedulingAnEventPanics)
{
    EventQueue eq;
    CountingEvent ev;
    eq.schedule(10, ev);
    EXPECT_DEATH(eq.schedule(20, ev), "already scheduled");
}

// --- Intrusive event API -------------------------------------------------

TEST(EventQueue, IntrusiveEventsInterleaveWithCallbacks)
{
    EventQueue eq;
    std::vector<int> order;
    RecordingEvent a{&order, 1};
    RecordingEvent b{&order, 3};
    eq.schedule(5, a);
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(5, b);
    EXPECT_TRUE(a.scheduled());
    eq.run();
    EXPECT_FALSE(a.scheduled());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, IntrusiveEventCanRescheduleItself)
{
    EventQueue eq;
    struct Ticker final : gpuwalk::sim::Event
    {
        EventQueue *eq = nullptr;
        int fires = 0;
        void
        process() override
        {
            if (++fires < 4)
                eq->scheduleIn(10, *this);
        }
    } ticker;
    ticker.eq = &eq;
    eq.schedule(1, ticker);
    eq.run();
    EXPECT_EQ(ticker.fires, 4);
    EXPECT_EQ(eq.now(), 31u);
}

TEST(EventQueue, DescheduleRemovesPendingEvent)
{
    EventQueue eq;
    std::vector<int> order;
    RecordingEvent a{&order, 1};
    RecordingEvent b{&order, 2};
    eq.schedule(10, a);
    eq.schedule(10, b);
    eq.deschedule(a);
    EXPECT_FALSE(a.scheduled());
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, DestroyedEventLeavesTheQueue)
{
    EventQueue eq;
    int fired = 0;
    {
        CountingEvent ev;
        ev.fired = &fired;
        eq.schedule(10, ev);
        EXPECT_EQ(eq.pending(), 1u);
    } // ev destructs while scheduled: must self-deschedule
    EXPECT_EQ(eq.pending(), 0u);
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, FarFutureEventsTierThroughOverflow)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick far = EventQueue::windowTicks * 5 + 3;
    eq.schedule(far, [&] { order.push_back(2); });
    EXPECT_EQ(eq.overflowPending(), 1u);
    eq.schedule(7, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), far);
    EXPECT_EQ(eq.overflowPending(), 0u);
}

TEST(EventQueue, CascadedEventsKeepDeterministicOrder)
{
    // Two event chains interleaving at the same ticks must execute in
    // a reproducible order: run twice, compare histories.
    auto run_once = [] {
        EventQueue eq;
        std::vector<int> history;
        for (int chain = 0; chain < 2; ++chain) {
            eq.schedule(1, [&eq, &history, chain] {
                history.push_back(chain);
                eq.scheduleIn(2, [&history, chain] {
                    history.push_back(10 + chain);
                });
            });
        }
        eq.run();
        return history;
    };
    EXPECT_EQ(run_once(), run_once());
}

// --- Pooled callable storage ----------------------------------------

TEST(EventQueue, SmallCaptureStoresInline)
{
    EventQueue eq;
    int a = 1, b = 2;
    int sum = 0;
    eq.schedule(5, [&sum, a, b] { sum = a + b; });
    eq.run();
    EXPECT_EQ(sum, 3);
}

TEST(EventQueue, MoveOnlyCaptureWorks)
{
    EventQueue eq;
    auto p = std::make_unique<int>(99);
    int seen = 0;
    eq.schedule(5, [&seen, p = std::move(p)] { seen = *p; });
    eq.run();
    EXPECT_EQ(seen, 99);
}

TEST(EventQueue, DestroysCaptureExactlyOnceInline)
{
    Counted::live = 0;
    {
        EventQueue eq;
        Counted c;
        eq.schedule(5, [c] {}); // runs: destroyed after invocation
        eq.schedule(7, [c] {}); // never runs: destroyed at teardown
        eq.run(6);
        EXPECT_EQ(Counted::live, 2); // `c` and the pending capture
    }
    EXPECT_EQ(Counted::live, 0) << "capture leaked or double-destroyed";
}

TEST(EventQueue, NonTrivialCapturesMoveAndDestroyExactlyOnce)
{
    // An owning pointer and a destructor counter ride in pooled nodes
    // across several pool chunks; each capture is moved into its node
    // once, the owned value survives, and every capture is destroyed
    // exactly once whether it runs or is torn down pending.
    constexpr int kEvents = 1200; // more than two pool chunks
    Counted::live = 0;
    Counted::moves = 0;
    long long sum = 0;
    {
        EventQueue eq;
        for (int i = 0; i < kEvents; ++i) {
            auto lambda = [c = Counted{}, p = std::make_unique<int>(i),
                           &sum] { sum += *p; };
            Counted::moves = 0;
            eq.schedule(static_cast<Tick>(i), std::move(lambda));
            ASSERT_EQ(Counted::moves, 1) << "capture moved more than once";
        }
        EXPECT_EQ(Counted::live, kEvents);
        eq.run(kEvents / 2 - 1); // runs ticks 0 .. kEvents/2 - 1
        EXPECT_EQ(Counted::live, kEvents / 2) << "a run capture survived";
        EXPECT_EQ(sum, (long long)(kEvents / 2) * (kEvents / 2 - 1) / 2);
    }
    EXPECT_EQ(Counted::live, 0) << "capture leaked or double-destroyed";
}

} // namespace

/**
 * @file
 * Unit tests for handle-addressed slots (sim::SlotTable) and the
 * request tables built on them: routing, per-sink live counts, the
 * slot audit, and the stale-handle panics that make a handle's
 * single release checkable.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/request.hh"
#include "sim/audit.hh"
#include "sim/slot_table.hh"
#include "tlb/translation.hh"

namespace {

using namespace gpuwalk;
using sim::Handle;

TEST(SlotTable, AcquireReleaseTracksLiveSlots)
{
    sim::SlotTable<int> slots;
    const Handle a = slots.acquire();
    const Handle b = slots.acquire();
    EXPECT_NE(a, b);
    slots.at(a) = 7;
    slots.at(b) = 9;
    EXPECT_EQ(slots.at(a), 7);
    EXPECT_EQ(slots.live(), 2u);
    slots.release(a);
    EXPECT_EQ(slots.live(), 1u);
    EXPECT_EQ(slots.at(b), 9);
}

TEST(SlotTable, ReusedSlotGetsAFreshHandle)
{
    sim::SlotTable<int> slots;
    const Handle first = slots.acquire();
    slots.release(first);
    const Handle second = slots.acquire();
    // Same slot (LIFO free list), next generation: the old handle
    // must not reach the new owner's object.
    EXPECT_NE(first, second);
    EXPECT_EQ(first & 0xFFFFFF, second & 0xFFFFFF);
}

TEST(SlotTable, GrowsPastOneSlab)
{
    sim::SlotTable<std::uint64_t> slots;
    std::vector<Handle> held;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        held.push_back(slots.acquire());
        slots.at(held.back()) = i;
    }
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_EQ(slots.at(held[i]), i);
    for (const Handle h : held)
        slots.release(h);
    EXPECT_EQ(slots.live(), 0u);
}

TEST(SlotTableDeathTest, StaleHandlePanics)
{
    sim::SlotTable<int> slots;
    const Handle h = slots.acquire();
    slots.release(h);
    EXPECT_DEATH(slots.at(h), "stale handle");
    EXPECT_DEATH(slots.release(h), "stale handle");
    const Handle reused = slots.acquire();
    (void)reused;
    EXPECT_DEATH(slots.at(h), "stale handle");
    EXPECT_DEATH(slots.at(sim::noHandle), "stale handle");
    // A slot of a grown slab that nobody acquired yet.
    EXPECT_DEATH(slots.at((reused & 0xFFFFFF) + 1), "stale handle");
}

/** Memory sink recording every completion's route. */
struct RecordingSink final : mem::MemorySink
{
    void memoryDone(const mem::MemoryRoute &route) override
    {
        routes.push_back(route);
    }
    std::size_t memoryInFlight() const override { return inFlight; }

    std::vector<mem::MemoryRoute> routes;
    std::size_t inFlight = 0;
};

TEST(RequestTable, CompletionReleasesThenDispatchesTheRoute)
{
    mem::MemoryTable table;
    RecordingSink a, b;
    const std::uint16_t ida = table.attach(a);
    const std::uint16_t idb = table.attach(b);
    const auto h1 = table.acquire({mem::MemoryRouteKind::CacheMshr, ida, 5});
    const auto h2 = table.acquire({mem::MemoryRouteKind::Walker, idb, 6});
    table.at(h1).addr = 0x40;
    EXPECT_EQ(table.liveRoutedTo(ida), 1u);
    EXPECT_EQ(table.liveRoutedTo(idb), 1u);

    table.complete(h1);
    ASSERT_EQ(a.routes.size(), 1u);
    EXPECT_EQ(a.routes[0].kind, mem::MemoryRouteKind::CacheMshr);
    EXPECT_EQ(a.routes[0].tag, 5u);
    EXPECT_TRUE(b.routes.empty());
    EXPECT_EQ(table.liveRoutedTo(ida), 0u);
    EXPECT_EQ(table.live(), 1u);

    table.complete(h2);
    ASSERT_EQ(b.routes.size(), 1u);
    EXPECT_EQ(b.routes[0].tag, 6u);
    EXPECT_EQ(table.live(), 0u);
}

TEST(RequestTable, AcquireResetsTheRequest)
{
    mem::MemoryTable table;
    const auto h = table.acquire();
    table.at(h).addr = 0x1234;
    table.at(h).write = true;
    table.complete(h); // None route: only frees the slot
    const auto again = table.acquire();
    EXPECT_EQ(table.at(again).addr, 0u);
    EXPECT_FALSE(table.at(again).write);
}

TEST(RequestTable, RerouteMovesTheLiveCount)
{
    mem::MemoryTable table;
    RecordingSink sink;
    const std::uint16_t id = table.attach(sink);
    const auto h = table.acquire({mem::MemoryRouteKind::CuLine, id, 1});
    table.reroute(h, {});
    EXPECT_EQ(table.liveRoutedTo(id), 0u);
    table.complete(h);
    EXPECT_TRUE(sink.routes.empty()) << "a cleared route still answered";
}

TEST(RequestTable, SlotAuditComparesSinksAndDemandsDrain)
{
    mem::MemoryTable table;
    RecordingSink sink;
    const std::uint16_t id = table.attach(sink);
    sim::Auditor auditor;
    table.registerInvariants(auditor);

    const auto h = table.acquire({mem::MemoryRouteKind::CuLine, id, 0});
    sink.inFlight = 1;
    auditor.check(sim::AuditPhase::Periodic, 0);
    EXPECT_TRUE(auditor.clean());

    // The sink forgets the request: its count and the table disagree.
    sink.inFlight = 0;
    auditor.check(sim::AuditPhase::Periodic, 1);
    EXPECT_FALSE(auditor.clean());
    EXPECT_EQ(auditor.violations().back().invariant, "mem.request_slots");

    // An unrouted slot still live at drain is a leak.
    sim::Auditor drain;
    table.registerInvariants(drain);
    table.reroute(h, {});
    drain.check(sim::AuditPhase::Periodic, 2);
    EXPECT_TRUE(drain.clean());
    drain.check(sim::AuditPhase::Final, 3);
    EXPECT_FALSE(drain.clean());
    table.complete(h);
}

/** Translation sink counting completions. */
struct CountingTranslationSink final : tlb::TranslationSink
{
    void
    translated(const tlb::TranslationRoute &, mem::Addr pa_page,
               bool large_page) override
    {
        lastPa = pa_page;
        lastLarge = large_page;
        ++done;
    }
    std::size_t translationsInFlight() const override { return 0; }

    mem::Addr lastPa = 0;
    bool lastLarge = false;
    unsigned done = 0;
};

TEST(RequestTable, TranslationCompletionCarriesTheResult)
{
    tlb::TranslationTable table;
    CountingTranslationSink sink;
    const std::uint16_t id = table.attach(sink);
    const auto h =
        table.acquire({tlb::TranslationRouteKind::Port, id, 3});
    table.at(h).vaPage = 0x7000;
    table.complete(h, 0x9000, true);
    EXPECT_EQ(sink.done, 1u);
    EXPECT_EQ(sink.lastPa, 0x9000u);
    EXPECT_TRUE(sink.lastLarge);
}

TEST(RequestTableDeathTest, CompletingAReleasedHandlePanics)
{
    tlb::TranslationTable translations;
    CountingTranslationSink sink;
    const std::uint16_t id = translations.attach(sink);
    const auto t =
        translations.acquire({tlb::TranslationRouteKind::Cu, id, 0});
    translations.complete(t, 0x1000);
    EXPECT_DEATH(translations.complete(t, 0x1000), "stale handle");

    mem::MemoryTable memory;
    const auto m = memory.acquire();
    memory.complete(m);
    EXPECT_DEATH(memory.complete(m), "stale handle");
}

TEST(RequestTableDeathTest, MalformedRoutePanics)
{
    mem::MemoryTable table;
    // A routed kind with no sink, and a sink id nobody attached.
    EXPECT_DEATH(table.acquire({mem::MemoryRouteKind::CuLine,
                                sim::noSink, 0}),
                 "malformed request route");
    EXPECT_DEATH(table.acquire({mem::MemoryRouteKind::CuLine, 3, 0}),
                 "malformed request route");
}

} // namespace

/**
 * @file
 * Unit tests for the object-pool contract of sim::SlotTable, the
 * simulator's one pool of recycled objects.
 *
 * Covers growth on exhaustion with live objects that stay put, LIFO
 * recycle identity, state and capacity retention across reuse (the
 * property the hot paths rely on to stay allocation-free), exact live
 * counts under churn and across many slabs, and the always-on release
 * validation: a second release of a handle must panic, not corrupt the
 * free list.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/slot_table.hh"

namespace {

using gpuwalk::sim::Handle;
using gpuwalk::sim::SlotTable;

struct Payload
{
    int value = 0;
    std::vector<int> scratch;
};

/** Slots per slab of a SlotTable. */
constexpr std::size_t slabSlots = 256;

/** The table-wide slot index @p h names, without its generation. */
Handle
slotIndex(Handle h)
{
    return h & 0xFFFFFF;
}

TEST(ObjectPool, ExhaustionAddsSlabsAndPointersStayDistinct)
{
    SlotTable<Payload> pool;
    constexpr std::size_t n = 2 * slabSlots + 11; // into a third slab
    std::set<Payload *> seen;
    std::vector<Handle> held;
    std::vector<Payload *> objects;
    for (std::size_t i = 0; i < n; ++i) {
        const Handle h = pool.acquire();
        Payload *p = &pool.at(h);
        EXPECT_TRUE(seen.insert(p).second) << "duplicate live object";
        held.push_back(h);
        objects.push_back(p);
    }
    EXPECT_EQ(pool.live(), n);

    // Growth never moves a live object.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(&pool.at(held[i]), objects[i]);

    for (const Handle h : held)
        pool.release(h);
    EXPECT_EQ(pool.live(), 0u);

    // Slabs are never returned: refilling reuses the same objects.
    std::set<Payload *> again;
    for (std::size_t i = 0; i < n; ++i)
        again.insert(&pool.at(pool.acquire()));
    EXPECT_EQ(again, seen);
}

TEST(ObjectPool, RecycleIsLifo)
{
    SlotTable<Payload> pool;
    const Handle a = pool.acquire();
    const Handle b = pool.acquire();
    pool.release(b);
    pool.release(a);
    // Most recently released comes back first.
    const Handle a2 = pool.acquire();
    const Handle b2 = pool.acquire();
    EXPECT_EQ(slotIndex(a2), slotIndex(a));
    EXPECT_EQ(slotIndex(b2), slotIndex(b));
    pool.release(a2);
    pool.release(b2);
}

TEST(ObjectPool, RecycledObjectsKeepStateAndCapacity)
{
    // The pool's contract: objects are constructed once and reused
    // as-is, so container capacity grown by one user is still there
    // for the next — that is what makes steady state allocation-free.
    SlotTable<Payload> pool;
    const Handle h = pool.acquire();
    Payload *p = &pool.at(h);
    p->value = 42;
    p->scratch.reserve(1024);
    const std::size_t cap = p->scratch.capacity();
    pool.release(h);

    const Handle g = pool.acquire();
    Payload *q = &pool.at(g);
    ASSERT_EQ(q, p);
    EXPECT_EQ(q->value, 42);
    EXPECT_GE(q->scratch.capacity(), cap);
    pool.release(g);
}

TEST(ObjectPool, InUseTracksAcquireReleaseCycles)
{
    SlotTable<Payload> pool;
    std::vector<Handle> held;
    std::set<Handle> slots;
    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int i = 0; i < 3; ++i) {
            held.push_back(pool.acquire());
            slots.insert(slotIndex(held.back()));
        }
        EXPECT_EQ(pool.live(), 3u);
        for (const Handle h : held)
            pool.release(h);
        held.clear();
        EXPECT_EQ(pool.live(), 0u);
    }
    // Recycling never reached past the first three slots.
    EXPECT_EQ(slots.size(), 3u);
}

TEST(ObjectPool, LiveCountStaysExactUnderRecycleWhileIterating)
{
    // The merge-entry pattern the audit's live-count invariants
    // depend on: while walking a set of live objects, each step may
    // release the current one and acquire a replacement (a completing
    // merge entry spawning a follow-up). The count must track every
    // interleaved acquire/release exactly — no drift, no double count
    // when LIFO hands the just-released slot straight back.
    SlotTable<Payload> pool;
    std::vector<Handle> held;
    for (int i = 0; i < 8; ++i) {
        held.push_back(pool.acquire());
        pool.at(held.back()).value = i;
    }
    ASSERT_EQ(pool.live(), 8u);

    for (std::size_t i = 0; i < held.size(); ++i) {
        pool.release(held[i]);
        EXPECT_EQ(pool.live(), 7u);
        const Handle fresh = pool.acquire();
        EXPECT_EQ(slotIndex(fresh), slotIndex(held[i])); // LIFO
        EXPECT_EQ(pool.at(fresh).value, static_cast<int>(i));
        EXPECT_EQ(pool.live(), 8u);
        held[i] = fresh;
    }

    // Tear down half from the middle (arbitrary order): the count
    // must step down one per release, ending exactly at zero.
    std::size_t expect = 8;
    for (std::size_t i = 1; i < held.size(); i += 2) {
        pool.release(held[i]);
        EXPECT_EQ(pool.live(), --expect);
    }
    for (std::size_t i = 0; i < held.size(); i += 2) {
        pool.release(held[i]);
        EXPECT_EQ(pool.live(), --expect);
    }
    EXPECT_EQ(pool.live(), 0u);
}

TEST(ObjectPool, FirstAndLastOfManySlabsRecycleWithExactCounts)
{
    // Release bookkeeping is per object, not per slab: the first and
    // the last of 120 slabs must behave exactly alike.
    constexpr std::size_t slabs = 120;
    constexpr std::size_t n = slabs * slabSlots;
    SlotTable<Payload> pool;
    std::vector<Handle> held;
    for (std::size_t i = 0; i < n; ++i) {
        held.push_back(pool.acquire());
        pool.at(held.back()).value = static_cast<int>(i);
    }
    EXPECT_EQ(pool.live(), n);

    const Handle first = held.front();
    const Handle last = held.back();
    pool.release(first);
    pool.release(last);
    EXPECT_EQ(pool.live(), n - 2);
    held.back() = pool.acquire(); // LIFO: last's slot comes back first
    held.front() = pool.acquire();
    EXPECT_EQ(slotIndex(held.back()), slotIndex(last));
    EXPECT_EQ(slotIndex(held.front()), slotIndex(first));
    EXPECT_EQ(pool.at(held.front()).value, 0);
    EXPECT_EQ(pool.at(held.back()).value, static_cast<int>(n - 1));
    EXPECT_EQ(pool.live(), n);

    for (const Handle h : held)
        pool.release(h);
    EXPECT_EQ(pool.live(), 0u);

    // Every slot is free again: one more of each slab's worth reuses
    // slots without growth, so no index reaches past the last slab.
    Handle top = 0;
    for (std::size_t i = 0; i < n; ++i)
        top = std::max(top, slotIndex(pool.acquire()));
    EXPECT_LT(top, Handle{n});
    EXPECT_EQ(pool.live(), n);
}

TEST(ObjectPoolDeathTest, DoubleReleasePanics)
{
    SlotTable<Payload> pool;
    const Handle h = pool.acquire();
    pool.release(h);
    EXPECT_DEATH(pool.release(h), "stale handle");
}

TEST(ObjectPoolDeathTest, ReleaseAfterRecycleByAnotherOwnerPanics)
{
    // The stale-owner variant of double release: the slot has been
    // re-acquired, so the stale release would free it out from under
    // the live owner. The slot is live again, so the check must tell
    // the owners apart by handle, not by the slot's live flag.
    SlotTable<Payload> pool;
    const Handle p = pool.acquire();
    pool.release(p);
    const Handle q = pool.acquire();
    ASSERT_EQ(slotIndex(q), slotIndex(p)); // LIFO: same slot, new owner
    EXPECT_DEATH(pool.release(p), "stale handle");
    EXPECT_EQ(pool.live(), 1u); // the live owner keeps its slot
    pool.release(q);
    EXPECT_DEATH(pool.release(p), "stale handle");
}

} // namespace

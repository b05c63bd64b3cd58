/**
 * @file
 * Unit tests for the set-associative timing cache, plus a randomized
 * differential test against a per-way reference model (victim choice,
 * dirty writeback addresses, flushAll).
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mem/cache.hh"
#include "sim/rng.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::mem;

/** Memory stub with fixed latency that records accesses. */
class StubMemory : public MemoryDevice
{
  public:
    StubMemory(sim::EventQueue &eq, sim::Tick latency)
        : eq_(eq), latency_(latency)
    {}

    void
    access(MemoryRequest req) override
    {
        if (req.write)
            writes.push_back(req.addr);
        else
            reads.push_back(req.addr);
        eq_.scheduleIn(latency_,
                       [r = std::move(req)]() mutable { r.complete(); });
    }

    std::vector<Addr> reads;
    std::vector<Addr> writes;

  private:
    sim::EventQueue &eq_;
    sim::Tick latency_;
};

struct CacheFixture : public ::testing::Test
{
    sim::EventQueue eq;
    StubMemory below{eq, 100 * 500};
    CacheConfig cfg{"test_cache", 4 * 1024, 4, 64, 500, 500, 8};
    std::unique_ptr<Cache> cache;

    void SetUp() override
    {
        cache = std::make_unique<Cache>(eq, cfg, below);
    }

    sim::Tick
    access(Addr addr, bool write = false)
    {
        sim::Tick done = 0;
        MemoryRequest req;
        req.addr = addr;
        req.write = write;
        req.onComplete = [&] { done = eq.now(); };
        cache->access(std::move(req));
        eq.run();
        return done;
    }
};

TEST_F(CacheFixture, ColdMissGoesBelow)
{
    access(0x1000);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_EQ(cache->hits(), 0u);
    ASSERT_EQ(below.reads.size(), 1u);
    EXPECT_EQ(below.reads[0], 0x1000u);
}

TEST_F(CacheFixture, SecondAccessHits)
{
    access(0x1000);
    const sim::Tick t0 = eq.now();
    const sim::Tick done = access(0x1040); // different line
    (void)done;
    access(0x1000); // hit
    EXPECT_EQ(cache->hits(), 1u);
    // Hit latency is short.
    sim::Tick start = eq.now();
    const sim::Tick hit_done = access(0x1000);
    EXPECT_EQ(hit_done - start, cfg.hitLatency);
    (void)t0;
}

TEST_F(CacheFixture, SameLineDifferentOffsetHits)
{
    access(0x2000);
    access(0x2030); // same 64B line
    EXPECT_EQ(cache->hits(), 1u);
    EXPECT_EQ(cache->misses(), 1u);
}

TEST_F(CacheFixture, MshrMergesConcurrentMisses)
{
    unsigned completed = 0;
    for (int i = 0; i < 3; ++i) {
        MemoryRequest req;
        req.addr = 0x3000 + Addr(i) * 8; // same line
        req.onComplete = [&] { ++completed; };
        cache->access(std::move(req));
    }
    eq.run();
    EXPECT_EQ(completed, 3u);
    EXPECT_EQ(cache->misses(), 1u);
    EXPECT_EQ(cache->mshrMerges(), 2u);
    EXPECT_EQ(below.reads.size(), 1u); // one fill only
}

TEST_F(CacheFixture, DirtyEvictionWritesBack)
{
    // Fill one set (4 ways) with writes, then evict.
    // Set index = (addr/64) % 16; keep the same set via 1 KB stride.
    const Addr stride = 64 * 16;
    for (int i = 0; i < 4; ++i)
        access(Addr(i) * stride, /*write=*/true);
    EXPECT_EQ(below.writes.size(), 0u);
    access(Addr(4) * stride, /*write=*/false); // evicts LRU dirty line
    EXPECT_EQ(cache->evictions(), 1u);
    EXPECT_EQ(cache->writebacks(), 1u);
    ASSERT_EQ(below.writes.size(), 1u);
    EXPECT_EQ(below.writes[0], 0u); // the first (LRU) line
}

TEST_F(CacheFixture, LruKeepsRecentlyUsedLines)
{
    const Addr stride = 64 * 16; // same set
    for (int i = 0; i < 4; ++i)
        access(Addr(i) * stride);
    access(0); // touch line 0 -> most recent
    access(Addr(4) * stride); // evicts line 1 (LRU), not 0
    access(0);
    EXPECT_EQ(cache->misses(), 5u); // line 0 still resident
}

TEST_F(CacheFixture, CleanEvictionDoesNotWriteBack)
{
    const Addr stride = 64 * 16;
    for (int i = 0; i < 5; ++i)
        access(Addr(i) * stride);
    EXPECT_EQ(cache->evictions(), 1u);
    EXPECT_EQ(cache->writebacks(), 0u);
}

TEST_F(CacheFixture, FlushAllInvalidates)
{
    access(0x1000);
    cache->flushAll();
    access(0x1000);
    EXPECT_EQ(cache->misses(), 2u);
    EXPECT_EQ(cache->hits(), 0u);
}

TEST_F(CacheFixture, HitRateComputation)
{
    access(0x1000);
    access(0x1000);
    access(0x1000);
    EXPECT_NEAR(cache->hitRate(), 2.0 / 3.0, 1e-12);
}

TEST_F(CacheFixture, WriteMissAllocatesAndMarksDirty)
{
    access(0x7000, /*write=*/true);
    EXPECT_EQ(cache->misses(), 1u);
    // Force its eviction: fill the rest of the set + 1.
    const Addr stride = 64 * 16;
    for (int i = 1; i <= 4; ++i)
        access(0x7000 + Addr(i) * stride);
    EXPECT_EQ(cache->writebacks(), 1u);
}

/**
 * Reference cache for serialized accesses (each miss fills before the
 * next access): per-way records, victim = first invalid way else the
 * lowest lastUse with the first way winning ties, dirty victims
 * written back at (tag * sets + set) * line.
 */
class ReferenceCache
{
  public:
    ReferenceCache(Addr sets, unsigned ways, Addr line)
        : sets_(sets), ways_(ways), line_(line), way_(sets * ways)
    {}

    /** @return the writeback address of this access, if any. */
    std::optional<Addr>
    access(Addr addr, bool write)
    {
        const Addr set = (addr / line_) % sets_;
        const Addr tag = (addr / line_) / sets_;
        Way *ways = &way_[set * ways_];
        for (unsigned i = 0; i < ways_; ++i) {
            if (ways[i].valid && ways[i].tag == tag) {
                ++hits;
                ways[i].lastUse = ++clock_;
                ways[i].dirty = ways[i].dirty || write;
                return std::nullopt;
            }
        }
        ++misses;
        Way *victim = nullptr;
        for (unsigned i = 0; i < ways_ && !victim; ++i) {
            if (!ways[i].valid)
                victim = &ways[i];
        }
        std::optional<Addr> wb;
        if (!victim) {
            victim = &ways[0];
            for (unsigned i = 1; i < ways_; ++i) {
                if (ways[i].lastUse < victim->lastUse)
                    victim = &ways[i];
            }
            ++evictions;
            if (victim->dirty)
                wb = (victim->tag * sets_ + set) * line_;
        }
        *victim = Way{true, write, tag, ++clock_};
        return wb;
    }

    void
    flushAll()
    {
        for (Way &w : way_) {
            w.valid = false;
            w.dirty = false;
        }
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    Addr sets_;
    unsigned ways_;
    Addr line_;
    std::vector<Way> way_;
    std::uint64_t clock_ = 0;
};

TEST_F(CacheFixture, MatchesReferenceModelUnderRandomTraffic)
{
    ReferenceCache ref(cfg.numSets(), cfg.associativity, cfg.lineBytes);
    std::vector<Addr> want_writes;
    sim::Rng rng(2024);
    for (int step = 0; step < 20000; ++step) {
        if (rng.below(200) == 0) {
            cache->flushAll();
            ref.flushAll();
            continue;
        }
        // 1024 lines over 16 sets: heavy conflict traffic, with
        // sub-line offsets so indexing must ignore them.
        const Addr addr = rng.below(64 * 1024);
        const bool write = rng.below(10) < 3;
        access(addr, write);
        if (const auto wb = ref.access(addr, write))
            want_writes.push_back(*wb);

        ASSERT_EQ(cache->hits(), ref.hits) << step;
        ASSERT_EQ(cache->misses(), ref.misses) << step;
        ASSERT_EQ(cache->evictions(), ref.evictions) << step;
        ASSERT_EQ(cache->writebacks(), want_writes.size()) << step;
        ASSERT_EQ(below.writes, want_writes) << step;
    }
    EXPECT_GT(cache->writebacks(), 100u);
}

TEST(CacheDeathTest, NonPowerOfTwoGeometryPanics)
{
    sim::EventQueue eq;
    StubMemory below(eq, 500);
    // 3 KB / (4 ways x 64 B) = 12 sets: divisible, not a power of two.
    EXPECT_DEATH(Cache(eq, {"odd_sets", 3 * 1024, 4, 64, 500, 500, 8},
                       below),
                 "powers of two");
    // 16 sets of 48-byte lines.
    EXPECT_DEATH(Cache(eq, {"odd_line", 16 * 4 * 48, 4, 48, 500, 500, 8},
                       below),
                 "powers of two");
}

} // namespace

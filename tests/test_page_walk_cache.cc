/**
 * @file
 * Unit tests for the page walk caches and their counter-based pinned
 * replacement (paper §IV design subtleties), plus a randomized
 * differential test against a per-entry last-use reference model.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "iommu/page_walk_cache.hh"
#include "sim/rng.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::iommu;
using gpuwalk::mem::Addr;
using gpuwalk::vm::PtLevel;

constexpr Addr root = 0x1000;

TEST(PageWalkCache, ColdLookupStartsAtRoot)
{
    PageWalkCache pwc({}, root);
    const auto start = pwc.lookup(0x40000000);
    EXPECT_EQ(start.level, 4u);
    EXPECT_EQ(start.tableBase, root);
    EXPECT_EQ(start.accesses(), 4u);
    EXPECT_EQ(pwc.misses(), 1u);
}

TEST(PageWalkCache, FillThenLookupSkipsLevels)
{
    PageWalkCache pwc({}, root);
    const Addr va = 0x40000000;
    pwc.fill(va, PtLevel::Pml4, 0x2000);
    auto start = pwc.lookup(va);
    EXPECT_EQ(start.level, 3u);
    EXPECT_EQ(start.tableBase, 0x2000u);

    pwc.fill(va, PtLevel::Pdpt, 0x3000);
    pwc.fill(va, PtLevel::Pd, 0x4000);
    start = pwc.lookup(va);
    EXPECT_EQ(start.level, 1u);
    EXPECT_EQ(start.tableBase, 0x4000u);
    EXPECT_EQ(start.accesses(), 1u);
}

TEST(PageWalkCache, DeepestHitWinsEvenWithoutUpperLevels)
{
    PageWalkCache pwc({}, root);
    const Addr va = 0x40000000;
    // A PD-level entry alone lets the walker jump straight to the
    // leaf table ("skip, don't walk").
    pwc.fill(va, PtLevel::Pd, 0x4000);
    const auto start = pwc.lookup(va);
    EXPECT_EQ(start.level, 1u);
    EXPECT_EQ(start.tableBase, 0x4000u);
}

TEST(PageWalkCache, RegionGranularitySharing)
{
    PageWalkCache pwc({}, root);
    pwc.fill(0x40000000, PtLevel::Pd, 0x4000);
    pwc.fill(0x40000000, PtLevel::Pdpt, 0x3000);
    pwc.fill(0x40000000, PtLevel::Pml4, 0x2000);
    // Another page in the same 2 MB region hits all three levels.
    const auto start = pwc.lookup(0x40000000 + 5 * mem::pageSize);
    EXPECT_EQ(start.level, 1u);
    // A page in a different 2 MB region misses the PD level.
    const auto start2 = pwc.lookup(0x40000000 + (Addr(2) << 21));
    EXPECT_EQ(start2.level, 2u);
}

TEST(PageWalkCache, ProbeEstimateMatchesLookupDepth)
{
    PageWalkCache pwc({}, root);
    const Addr va = 0x40000000;
    EXPECT_EQ(pwc.peekEstimate(va), 4u);
    pwc.fill(va, PtLevel::Pml4, 0x2000);
    EXPECT_EQ(pwc.peekEstimate(va), 3u);
    pwc.fill(va, PtLevel::Pdpt, 0x3000);
    EXPECT_EQ(pwc.peekEstimate(va), 2u);
    pwc.fill(va, PtLevel::Pd, 0x4000);
    EXPECT_EQ(pwc.peekEstimate(va), 1u);
    EXPECT_EQ(pwc.probeEstimate(va), 1u);
}

TEST(PageWalkCache, ProbesPinEntriesAgainstReplacement)
{
    PwcConfig cfg;
    cfg.entriesPerLevel = 4;
    cfg.associativity = 4; // one set: easy conflict pressure
    cfg.pinScoredEntries = true;
    PageWalkCache pwc(cfg, root);

    // Fill the PD cache with 4 regions; probe (pin) the first one.
    for (Addr r = 0; r < 4; ++r)
        pwc.fill(r << 21, PtLevel::Pd, 0x4000 + (r << 12));
    ASSERT_EQ(pwc.probeEstimate(0), 1u); // pins region 0

    // Insert a new region: the pinned entry must survive.
    pwc.fill(Addr(9) << 21, PtLevel::Pd, 0x9000);
    EXPECT_EQ(pwc.peekEstimate(0), 1u);
    EXPECT_GE(pwc.pinnedSkips(), 1u);
}

TEST(PageWalkCache, WalkLookupUnpinsEntries)
{
    PwcConfig cfg;
    cfg.entriesPerLevel = 4;
    cfg.associativity = 4;
    PageWalkCache pwc(cfg, root);

    for (Addr r = 0; r < 4; ++r)
        pwc.fill(r << 21, PtLevel::Pd, 0x4000);
    pwc.probeEstimate(0);  // pin
    pwc.lookup(0);         // unpin (walk consumed the estimate)

    // Now region 0 is evictable again: inserting a new region with
    // all other entries more recently used evicts region 0.
    for (Addr r = 1; r < 4; ++r)
        pwc.lookup(r << 21); // refresh LRU of others
    pwc.fill(Addr(9) << 21, PtLevel::Pd, 0x9000);
    EXPECT_EQ(pwc.peekEstimate(0), 4u);
}

TEST(PageWalkCache, AllPinnedFallsBackToLru)
{
    PwcConfig cfg;
    cfg.entriesPerLevel = 2;
    cfg.associativity = 2;
    PageWalkCache pwc(cfg, root);
    pwc.fill(Addr(0) << 21, PtLevel::Pd, 0x4000);
    pwc.fill(Addr(1) << 21, PtLevel::Pd, 0x5000);
    pwc.probeEstimate(Addr(0) << 21);
    pwc.probeEstimate(Addr(1) << 21);
    // Both pinned; the fill must still succeed (plain LRU victim).
    pwc.fill(Addr(2) << 21, PtLevel::Pd, 0x6000);
    EXPECT_EQ(pwc.peekEstimate(Addr(2) << 21), 1u);
}

TEST(PageWalkCache, PinningDisabledByConfig)
{
    PwcConfig cfg;
    cfg.entriesPerLevel = 2;
    cfg.associativity = 2;
    cfg.pinScoredEntries = false;
    PageWalkCache pwc(cfg, root);
    pwc.fill(Addr(0) << 21, PtLevel::Pd, 0x4000);
    pwc.fill(Addr(1) << 21, PtLevel::Pd, 0x5000);
    pwc.probeEstimate(Addr(0) << 21); // would pin region 0
    pwc.fill(Addr(2) << 21, PtLevel::Pd, 0x6000);
    // Without pinning, plain LRU evicts region 0 (probes skip LRU
    // updates, so region 0 is oldest).
    EXPECT_EQ(pwc.peekEstimate(Addr(0) << 21), 4u);
    EXPECT_EQ(pwc.pinnedSkips(), 0u);
}

TEST(PageWalkCache, CountersSaturateAtThree)
{
    PwcConfig cfg;
    cfg.entriesPerLevel = 2;
    cfg.associativity = 2;
    PageWalkCache pwc(cfg, root);
    pwc.fill(0, PtLevel::Pd, 0x4000);
    for (int i = 0; i < 10; ++i)
        pwc.probeEstimate(0);
    // Three walk lookups fully unpin (saturated at 3, not 10).
    pwc.lookup(0);
    pwc.lookup(0);
    pwc.lookup(0);
    pwc.fill(Addr(1) << 21, PtLevel::Pd, 0x5000);
    pwc.fill(Addr(2) << 21, PtLevel::Pd, 0x6000);
    // Region 0 was evictable after three unpins.
    EXPECT_EQ(pwc.peekEstimate(0), 4u);
}

TEST(PageWalkCache, PeekCounterObservesProbeSaturation)
{
    PageWalkCache pwc({}, root);
    const Addr va = 0x40000000;

    // No entry yet: nothing to observe.
    EXPECT_FALSE(pwc.peekCounter(va, PtLevel::Pd).has_value());

    pwc.fill(va, PtLevel::Pd, 0x4000);
    EXPECT_EQ(pwc.peekCounter(va, PtLevel::Pd), 0);
    // Upper levels were never filled.
    EXPECT_FALSE(pwc.peekCounter(va, PtLevel::Pml4).has_value());

    // Each probe increments the 2-bit counter...
    for (std::uint8_t expected = 1; expected <= 3; ++expected) {
        pwc.probeEstimate(va);
        EXPECT_EQ(pwc.peekCounter(va, PtLevel::Pd), expected);
    }
    // ...and it saturates at 3, however many more probes arrive.
    for (int i = 0; i < 10; ++i)
        pwc.probeEstimate(va);
    EXPECT_EQ(pwc.peekCounter(va, PtLevel::Pd), 3);
}

TEST(PageWalkCache, WalkLookupsDecrementCounterToZero)
{
    PageWalkCache pwc({}, root);
    const Addr va = 0x40000000;
    pwc.fill(va, PtLevel::Pd, 0x4000);
    pwc.probeEstimate(va);
    pwc.probeEstimate(va);
    EXPECT_EQ(pwc.peekCounter(va, PtLevel::Pd), 2);

    // Each walk lookup consumes one pin count.
    pwc.lookup(va);
    EXPECT_EQ(pwc.peekCounter(va, PtLevel::Pd), 1);
    pwc.lookup(va);
    EXPECT_EQ(pwc.peekCounter(va, PtLevel::Pd), 0);
    // Further lookups must not wrap below zero.
    pwc.lookup(va);
    EXPECT_EQ(pwc.peekCounter(va, PtLevel::Pd), 0);
}

TEST(PageWalkCache, PinnedSkipsCountsExactlyOncePerShieldedFill)
{
    PwcConfig cfg;
    cfg.entriesPerLevel = 4;
    cfg.associativity = 4; // one set
    PageWalkCache pwc(cfg, root);

    for (Addr r = 0; r < 4; ++r)
        pwc.fill(r << 21, PtLevel::Pd, 0x4000 + (r << 12));
    pwc.probeEstimate(0); // pin region 0
    EXPECT_EQ(pwc.pinnedSkips(), 0u);

    // Every fill that routes around the pinned entry counts once,
    // regardless of how many unpinned candidates it considered.
    pwc.fill(Addr(9) << 21, PtLevel::Pd, 0x9000);
    EXPECT_EQ(pwc.pinnedSkips(), 1u);
    pwc.fill(Addr(10) << 21, PtLevel::Pd, 0xa000);
    EXPECT_EQ(pwc.pinnedSkips(), 2u);
    // The pinned entry itself survived both fills.
    EXPECT_EQ(pwc.peekCounter(0, PtLevel::Pd), 1);

    // Consuming the pin stops the counting.
    pwc.lookup(0);
    EXPECT_EQ(pwc.peekCounter(0, PtLevel::Pd), 0);
    pwc.fill(Addr(11) << 21, PtLevel::Pd, 0xb000);
    EXPECT_EQ(pwc.pinnedSkips(), 2u);
}

TEST(PageWalkCache, InvalidateAllClears)
{
    PageWalkCache pwc({}, root);
    pwc.fill(0x40000000, PtLevel::Pml4, 0x2000);
    pwc.invalidateAll();
    EXPECT_EQ(pwc.peekEstimate(0x40000000), 4u);
}

/**
 * Reference PWC: one record per way and level, every rule spelled out.
 * Victim = first invalid way; else, with pinning, the lowest lastUse
 * among unpinned ways (a pinned way scanned before the victim's choice
 * counts one pinned skip); else the lowest lastUse.
 */
class ReferencePwc
{
  public:
    ReferencePwc(const PwcConfig &cfg)
        : cfg_(cfg), sets_(cfg.entriesPerLevel / cfg.associativity)
    {
        for (auto &level : way_)
            level.resize(cfg.entriesPerLevel);
    }

    unsigned
    probe(Addr va, ContextId ctx, bool pin)
    {
        for (unsigned l = 2; l <= vm::numPtLevels; ++l) {
            if (Way *w = find(va, PtLevel{l}, ctx)) {
                if (pin && w->counter < 3)
                    ++w->counter;
                return l - 1;
            }
        }
        return vm::numPtLevels;
    }

    WalkStart
    lookup(Addr va, ContextId ctx, bool consume_pins, Addr root)
    {
        for (unsigned l = 2; l <= vm::numPtLevels; ++l) {
            if (Way *w = find(va, PtLevel{l}, ctx)) {
                ++hits;
                w->lastUse = ++clock_;
                if (consume_pins && w->counter > 0)
                    --w->counter;
                return WalkStart{l - 1, w->next};
            }
        }
        ++misses;
        return WalkStart{vm::numPtLevels, root};
    }

    void
    fill(Addr va, PtLevel level, Addr next, ContextId ctx)
    {
        if (Way *w = find(va, level, ctx)) {
            w->next = next;
            w->lastUse = ++clock_;
            return;
        }
        const Addr region = vm::PageTable::regionBase(va, level);
        Way *set = &way_[static_cast<unsigned>(level) - 2]
                        [setOf(region) * cfg_.associativity];
        Way *victim = nullptr;
        bool skipped = false;
        for (unsigned i = 0; i < cfg_.associativity; ++i) {
            Way &w = set[i];
            if (!w.valid) {
                victim = &w;
                break;
            }
            if (cfg_.pinScoredEntries && w.counter > 0) {
                skipped = true;
                continue;
            }
            if (!victim || w.lastUse < victim->lastUse)
                victim = &w;
        }
        if (!victim) {
            for (unsigned i = 0; i < cfg_.associativity; ++i) {
                if (!victim || set[i].lastUse < victim->lastUse)
                    victim = &set[i];
            }
        } else if (skipped) {
            ++pinnedSkips;
        }
        *victim = Way{true, region, ctx, next, ++clock_, 0};
    }

    std::optional<std::uint8_t>
    counter(Addr va, PtLevel level, ContextId ctx)
    {
        const Way *w = find(va, level, ctx);
        return w ? std::optional<std::uint8_t>(w->counter) : std::nullopt;
    }

    void
    invalidateAll()
    {
        for (auto &level : way_) {
            for (Way &w : level)
                w = Way{};
        }
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t pinnedSkips = 0;

  private:
    struct Way
    {
        bool valid = false;
        Addr region = 0;
        ContextId ctx = 0;
        Addr next = 0;
        std::uint64_t lastUse = 0;
        std::uint8_t counter = 0;
    };

    std::size_t
    setOf(Addr region) const
    {
        return static_cast<std::size_t>((region >> 21) ^ (region >> 30))
               % sets_;
    }

    Way *
    find(Addr va, PtLevel level, ContextId ctx)
    {
        const Addr region = vm::PageTable::regionBase(va, level);
        Way *set = &way_[static_cast<unsigned>(level) - 2]
                        [setOf(region) * cfg_.associativity];
        for (unsigned i = 0; i < cfg_.associativity; ++i) {
            if (set[i].valid && set[i].region == region
                && set[i].ctx == ctx)
                return &set[i];
        }
        return nullptr;
    }

    PwcConfig cfg_;
    std::size_t sets_;
    std::vector<Way> way_[3];
    std::uint64_t clock_ = 0;
};

TEST(PageWalkCacheDifferential, MatchesReferenceModelUnderRandomTraffic)
{
    // The default 16/4 geometry, a 3-set one (the set index is a
    // modulo, not a mask) and a 2-way one, with and without pinning.
    const PwcConfig configs[] = {
        {16, 4, true}, {16, 4, false}, {12, 4, true}, {8, 2, true}};
    const ContextId ctxs[] = {0, 1, 4096};
    for (const PwcConfig &cfg : configs) {
        SCOPED_TRACE(testing::Message()
                     << cfg.entriesPerLevel << "/" << cfg.associativity
                     << (cfg.pinScoredEntries ? " pinned" : ""));
        PageWalkCache pwc(cfg, root);
        ReferencePwc ref(cfg);
        for (const ContextId c : ctxs) {
            if (c != 0)
                pwc.registerContext(c, root + c);
        }
        sim::Rng rng(cfg.entriesPerLevel * 7 + cfg.associativity);

        // VAs over 64 PD regions in 16 PDPT regions in 4 PML4 regions.
        std::vector<Addr> vas;
        for (Addr i = 0; i < 64; ++i) {
            vas.push_back(((i % 4) << 39) | (((i / 4) % 4) << 30)
                          | ((i / 16) << 21));
        }
        for (int step = 0; step < 8000; ++step) {
            const Addr va = vas[rng.below(vas.size())];
            const ContextId ctx = ctxs[rng.below(3)];
            const std::uint64_t op = rng.below(100);
            if (op < 25) {
                ASSERT_EQ(pwc.probeEstimate(va, ctx),
                          ref.probe(va, ctx, true))
                    << step;
            } else if (op < 30) {
                ASSERT_EQ(pwc.peekEstimate(va, ctx),
                          ref.probe(va, ctx, false))
                    << step;
            } else if (op < 60) {
                const bool consume = rng.below(4) != 0;
                const Addr r = ctx == 0 ? root : root + ctx;
                const WalkStart got = pwc.lookup(va, ctx, consume);
                const WalkStart want = ref.lookup(va, ctx, consume, r);
                ASSERT_EQ(got.level, want.level) << step;
                ASSERT_EQ(got.tableBase, want.tableBase) << step;
            } else if (op < 99) {
                const auto level = PtLevel{2 + unsigned(rng.below(3))};
                const Addr next = 0x1000 * (1 + rng.below(1 << 20));
                pwc.fill(va, level, next, ctx);
                ref.fill(va, level, next, ctx);
            } else {
                pwc.invalidateAll();
                ref.invalidateAll();
            }
            ASSERT_EQ(pwc.hits(), ref.hits) << step;
            ASSERT_EQ(pwc.misses(), ref.misses) << step;
            ASSERT_EQ(pwc.pinnedSkips(), ref.pinnedSkips) << step;
            // Contents and counters: a victim divergence shows up as a
            // differing entry on the very next step.
            for (unsigned l = 2; l <= vm::numPtLevels; ++l) {
                for (const Addr v : vas) {
                    for (const ContextId c : ctxs) {
                        ASSERT_EQ(pwc.peekCounter(v, PtLevel{l}, c),
                                  ref.counter(v, PtLevel{l}, c))
                            << "step " << step << " level " << l;
                    }
                }
            }
        }
        if (cfg.pinScoredEntries) {
            EXPECT_GT(ref.pinnedSkips, 0u);
        }
    }
}

TEST(PageWalkCacheDeathTest, LeafFillRejected)
{
    PageWalkCache pwc({}, root);
    EXPECT_DEATH(pwc.fill(0x40000000, PtLevel::Pt, 0x2000),
                 "upper levels");
}

} // namespace

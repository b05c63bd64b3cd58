/**
 * @file
 * Unit tests for the set-associative TLB, plus a randomized
 * differential test against a plain per-way reference model that pins
 * victim choice, duplicate refresh, 2 MB entries, invalidation holes
 * and wide ASIDs.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/rng.hh"
#include "tlb/set_assoc_tlb.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::tlb;
using gpuwalk::mem::Addr;

constexpr Addr page(std::uint64_t n) { return n << 12; }

TEST(SetAssocTlb, MissOnEmpty)
{
    SetAssocTlb tlb({"t", 32, 32});
    EXPECT_FALSE(tlb.lookup(page(5)).has_value());
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(SetAssocTlb, InsertThenHit)
{
    SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(page(5), page(99));
    auto pa = tlb.lookup(page(5));
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, page(99));
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(SetAssocTlb, ProbeDoesNotTouchStats)
{
    SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(page(5), page(99));
    EXPECT_TRUE(tlb.probe(page(5)).has_value());
    EXPECT_FALSE(tlb.probe(page(6)).has_value());
    EXPECT_EQ(tlb.hits(), 0u);
    EXPECT_EQ(tlb.misses(), 0u);
}

TEST(SetAssocTlb, FullyAssociativeLruEviction)
{
    SetAssocTlb tlb({"t", 4, 4});
    for (std::uint64_t i = 0; i < 4; ++i)
        tlb.insert(page(i), page(100 + i));
    tlb.lookup(page(0)); // refresh 0
    tlb.insert(page(9), page(200)); // evicts page 1 (LRU)
    EXPECT_TRUE(tlb.probe(page(0)).has_value());
    EXPECT_FALSE(tlb.probe(page(1)).has_value());
    EXPECT_TRUE(tlb.probe(page(9)).has_value());
}

TEST(SetAssocTlb, ReinsertRefreshesExistingEntry)
{
    SetAssocTlb tlb({"t", 4, 4});
    tlb.insert(page(1), page(10));
    tlb.insert(page(1), page(20));
    EXPECT_EQ(tlb.population(), 1u);
    EXPECT_EQ(*tlb.probe(page(1)), page(20));
}

TEST(SetAssocTlb, SetAssociativityLimitsConflicts)
{
    // 8 entries, 2-way: 4 sets.
    SetAssocTlb tlb({"t", 8, 2});
    // With the hashed index we can't predict set membership directly,
    // but total population can never exceed capacity.
    for (std::uint64_t i = 0; i < 100; ++i)
        tlb.insert(page(i), page(1000 + i));
    EXPECT_LE(tlb.population(), 8u);
}

TEST(SetAssocTlb, HashedIndexSpreadsStridedPages)
{
    // Pages strided by 8 (matrix-row stride) must not all collide in
    // a few sets: with 512 entries / 16-way = 32 sets, 64 strided
    // pages fit comfortably when hashing works.
    SetAssocTlb tlb({"t", 512, 16});
    for (std::uint64_t i = 0; i < 64; ++i)
        tlb.insert(page(i * 8), page(i));
    unsigned resident = 0;
    for (std::uint64_t i = 0; i < 64; ++i)
        resident += tlb.probe(page(i * 8)).has_value() ? 1 : 0;
    EXPECT_EQ(resident, 64u);
}

TEST(SetAssocTlb, InvalidateSingleEntry)
{
    SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(page(3), page(30));
    EXPECT_TRUE(tlb.invalidate(page(3)));
    EXPECT_FALSE(tlb.invalidate(page(3)));
    EXPECT_FALSE(tlb.probe(page(3)).has_value());
}

TEST(SetAssocTlb, InvalidateAllEmptiesTlb)
{
    SetAssocTlb tlb({"t", 32, 32});
    for (std::uint64_t i = 0; i < 20; ++i)
        tlb.insert(page(i), page(i));
    EXPECT_EQ(tlb.population(), 20u);
    tlb.invalidateAll();
    EXPECT_EQ(tlb.population(), 0u);
}

TEST(SetAssocTlb, HitRate)
{
    SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(page(1), page(1));
    tlb.lookup(page(1));
    tlb.lookup(page(2));
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

/**
 * Reference TLB: one record per way, every rule spelled out. Victim =
 * first invalid way, else lowest lastUse with the first way winning
 * ties; a duplicate fill refreshes in place; lookups prefer an exact
 * 4 KB entry over the covering 2 MB one.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(unsigned entries, unsigned ways)
        : sets_(entries / ways), ways_(ways), way_(entries)
    {}

    std::optional<TlbHit>
    lookup(Addr va_page, ContextId ctx, bool count)
    {
        Way *w = find(va_page, false, ctx);
        if (!w)
            w = find(va_page, true, ctx);
        if (count)
            ++(w ? hits : misses);
        if (!w)
            return std::nullopt;
        if (count)
            w->lastUse = ++clock_;
        if (!w->large)
            return TlbHit{w->ppn << 12, false};
        return TlbHit{(w->ppn << 21) | (((va_page >> 12) % 512) << 12),
                      true};
    }

    void
    insert(Addr va_page, Addr pa_page, bool large, ContextId ctx)
    {
        const Addr ppn = large ? pa_page >> 21 : pa_page >> 12;
        if (Way *dup = find(va_page, large, ctx)) {
            dup->ppn = ppn;
            dup->lastUse = ++clock_;
            return;
        }
        Way *set = &way_[setOf(vpnOf(va_page, large), ctx) * ways_];
        Way *victim = nullptr;
        for (unsigned i = 0; i < ways_ && !victim; ++i) {
            if (!set[i].valid)
                victim = &set[i];
        }
        if (!victim) {
            victim = &set[0];
            for (unsigned i = 1; i < ways_; ++i) {
                if (set[i].lastUse < victim->lastUse)
                    victim = &set[i];
            }
        }
        *victim = Way{true, large, ctx, vpnOf(va_page, large), ppn,
                      ++clock_};
    }

    bool
    invalidate(Addr va_page, ContextId ctx)
    {
        Way *w = find(va_page, false, ctx);
        if (!w)
            w = find(va_page, true, ctx);
        if (w)
            w->valid = false;
        return w != nullptr;
    }

    void
    invalidateAll()
    {
        for (Way &w : way_)
            w.valid = false;
    }

    unsigned
    population() const
    {
        unsigned n = 0;
        for (const Way &w : way_)
            n += w.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Way
    {
        bool valid = false;
        bool large = false;
        ContextId ctx = 0;
        Addr vpn = 0;
        Addr ppn = 0;
        std::uint64_t lastUse = 0;
    };

    static Addr
    vpnOf(Addr va_page, bool large)
    {
        return large ? va_page >> 21 : va_page >> 12;
    }

    /** The documented XOR-folded, context-salted set index. */
    std::size_t
    setOf(Addr vpn, ContextId ctx) const
    {
        const Addr h = vpn ^ (vpn >> 5) ^ (vpn >> 10)
                       ^ (Addr(ctx) * 0x9e3779b9u);
        return static_cast<std::size_t>(h) & (sets_ - 1);
    }

    Way *
    find(Addr va_page, bool large, ContextId ctx)
    {
        const Addr vpn = vpnOf(va_page, large);
        Way *set = &way_[setOf(vpn, ctx) * ways_];
        for (unsigned i = 0; i < ways_; ++i) {
            if (set[i].valid && set[i].large == large
                && set[i].ctx == ctx && set[i].vpn == vpn) {
                return &set[i];
            }
        }
        return nullptr;
    }

    std::size_t sets_;
    unsigned ways_;
    std::vector<Way> way_;
    std::uint64_t clock_ = 0;
};

TEST(SetAssocTlbDifferential, MatchesReferenceModelUnderRandomTraffic)
{
    struct Geometry
    {
        unsigned entries;
        unsigned ways;
        std::uint64_t pages;       ///< distinct small pages drawn
        unsigned checkEvery;       ///< steps between full probes
        std::uint64_t flushOneIn;  ///< invalidateAll odds per step
    };
    // 4 sets x 4 ways (set conflicts) and one fully associative
    // 8-entry set (pure LRU order), checked every step; then the
    // production geometries, the 32-entry fully associative L1 and the
    // 512-entry 16-way L2, held near full occupancy.
    const Geometry geometries[] = {
        {16, 4, 40, 1, 100},
        {8, 8, 40, 1, 100},
        {32, 32, 96, 4, 4000},
        {512, 16, 1024, 16, 8000},
    };
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(testing::Message() << g.entries << "/" << g.ways);
        SetAssocTlb tlb({"diff", g.entries, g.ways});
        ReferenceTlb ref(g.entries, g.ways);
        sim::Rng rng(g.entries * 131 + g.ways);

        // Small pages spread over 2 MB regions, so 2 MB entries cover
        // some of them; a hot eighth of them is drawn half the time,
        // so hits reorder the LRU lists; ASIDs include wide ones.
        std::vector<Addr> pages;
        for (std::uint64_t i = 0; i < g.pages; ++i)
            pages.push_back(page((i * 53) % (g.pages * 32)));
        const ContextId ctxs[] = {0, 1, 4096, 4097, 65535};
        const std::size_t hot = pages.size() / 8;
        bool filled = false;

        for (int step = 0; step < 20000; ++step) {
            const Addr va = pages[rng.below(2) ? rng.below(hot)
                                               : rng.below(pages.size())];
            const ContextId ctx = ctxs[rng.below(5)];
            const std::uint64_t op = rng.below(100);
            if (rng.below(g.flushOneIn) == 0) {
                tlb.invalidateAll();
                ref.invalidateAll();
            } else if (op < 45) {
                const auto got = tlb.lookupEntry(va, ctx);
                const auto want = ref.lookup(va, ctx, true);
                ASSERT_EQ(got.has_value(), want.has_value()) << step;
                if (got) {
                    ASSERT_EQ(got->paPage, want->paPage) << step;
                    ASSERT_EQ(got->largePage, want->largePage) << step;
                }
            } else if (op < 85) {
                const bool large = rng.below(8) == 0;
                const Addr pa = page(rng.below(1 << 20));
                tlb.insert(va, pa, large, ctx);
                ref.insert(va, pa, large, ctx);
            } else {
                ASSERT_EQ(tlb.invalidate(va, ctx), ref.invalidate(va, ctx))
                    << step;
            }

            ASSERT_EQ(tlb.hits(), ref.hits);
            ASSERT_EQ(tlb.misses(), ref.misses);
            ASSERT_EQ(tlb.population(), ref.population()) << step;
            filled = filled || ref.population() == g.entries;
            if (step % g.checkEvery != 0)
                continue;
            // Whole-universe contents check: a victim divergence
            // leaves a differing probe until both sides evict it.
            for (const Addr p : pages) {
                for (const ContextId c : ctxs) {
                    const auto got = tlb.probe(p, c);
                    const auto want = ref.lookup(p, c, false);
                    ASSERT_EQ(got.has_value(), want.has_value())
                        << "step " << step << " page " << p << " ctx "
                        << c;
                    if (got) {
                        ASSERT_EQ(*got, want->paPage) << step;
                    }
                }
            }
        }
        // Every geometry ran full, so fills chose LRU victims.
        EXPECT_TRUE(filled);
    }
}

TEST(SetAssocTlbDeathTest, VpnWiderThanTheMatchKeyPanics)
{
    SetAssocTlb tlb({"t", 32, 32});
    EXPECT_DEATH(tlb.insert(Addr(1) << 58, page(1)), "does not fit");
}

TEST(SetAssocTlbDeathTest, BadGeometry)
{
    EXPECT_DEATH(SetAssocTlb(TlbConfig{"t", 10, 4}),
                 "not divisible");
}

TEST(SetAssocTlbDeathTest, NonPowerOfTwoSetCount)
{
    // 12 entries / 4 ways = 3 sets: divisible, but set indexing is a
    // mask, so the set count must be a power of two.
    EXPECT_DEATH(SetAssocTlb(TlbConfig{"t", 12, 4}),
                 "power of two");
}

} // namespace

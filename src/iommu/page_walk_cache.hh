/**
 * @file
 * Page walk caches (PWCs).
 *
 * One small cache per upper page-table level (PML4, PDPT, PD), each
 * mapping the level's VA region base to the next-level table's
 * physical base. A hit at the PD level leaves one memory access for
 * the walk; a full miss costs four (paper §II-B).
 *
 * The paper augments PWC entries with 2-bit saturating counters: a
 * counter is incremented when an arrival-time scoring probe hits the
 * entry and decremented when a dispatched walk consumes the hit, and
 * replacement avoids victimizing entries with non-zero counters. That
 * keeps arrival-time score estimates honest by the time the request is
 * actually scheduled (§IV, "Design Subtleties").
 */

#ifndef GPUWALK_IOMMU_PAGE_WALK_CACHE_HH
#define GPUWALK_IOMMU_PAGE_WALK_CACHE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/types.hh"
#include "sim/set_assoc_tags.hh"
#include "sim/stats.hh"
#include "tlb/translation.hh"
#include "vm/page_table.hh"

namespace gpuwalk::iommu {

/** Address-space identifier; see tlb::ContextId. */
using ContextId = tlb::ContextId;

/** Geometry and behaviour of the per-level walk caches. */
struct PwcConfig
{
    unsigned entriesPerLevel = 16;
    unsigned associativity = 4;

    /** Enables the paper's counter-based pinned replacement. */
    bool pinScoredEntries = true;
};

/** Where a walk may begin after consulting the PWCs. */
struct WalkStart
{
    /** First page-table level the walker must read (4 = from root). */
    unsigned level = vm::numPtLevels;

    /** Physical base of the table holding that level's entry. */
    mem::Addr tableBase = 0;

    /** Memory accesses the walk will perform: equals level. */
    unsigned accesses() const { return level; }
};

/** The three upper-level walk caches plus the scoring-probe logic. */
class PageWalkCache
{
  public:
    /**
     * @param cfg Geometry.
     * @param root Physical base of the PML4 of the default context
     *        (ASID 0); walks of that context start here on a full
     *        miss. Further address spaces join via registerContext().
     */
    PageWalkCache(const PwcConfig &cfg, mem::Addr root);

    /**
     * Registers the page-table root of @p ctx. Every probe/lookup/fill
     * must name a registered context; an unregistered one is a fatal
     * modelling error (the hardware analogue is a DMA from a device
     * with no IOMMU domain attached).
     */
    void registerContext(ContextId ctx, mem::Addr root);

    /** Whether @p ctx has a registered page-table root. */
    bool contextRegistered(ContextId ctx) const;

    /** The registered walk root of @p ctx (fatal if unregistered). */
    mem::Addr rootOf(ContextId ctx) const;

    /**
     * Arrival-time scoring probe (paper action 1-a): returns the
     * estimated number of memory accesses for a walk of @p va_page
     * in @p ctx (1-4) and increments the saturating counters of hit
     * entries. Does not touch LRU state.
     */
    unsigned probeEstimate(mem::Addr va_page,
                           ContextId ctx = tlb::defaultContext);

    /**
     * Non-mutating estimate: same value as probeEstimate, no counter
     * or LRU updates.
     */
    unsigned peekEstimate(mem::Addr va_page,
                          ContextId ctx = tlb::defaultContext) const;

    /**
     * Walk-time lookup (action 2-b): finds the deepest hit tagged with
     * @p ctx, updates LRU, and decrements counters along the hit path.
     * Pass @p consume_pins = false for walks that were never scored
     * (prefetches): their lookups must not drain pin counters that a
     * scoring probe incremented on behalf of a buffered demand walk.
     * @return where the walk starts (@p ctx's root on a full miss).
     */
    WalkStart lookup(mem::Addr va_page,
                     ContextId ctx = tlb::defaultContext,
                     bool consume_pins = true);

    /**
     * Installs the translation read at @p level for @p ctx: the entry
     * for @p va_page at that level points to @p next_table.
     * @pre level is Pml4, Pdpt, or Pd (leaf PTEs live in TLBs).
     */
    void fill(mem::Addr va_page, vm::PtLevel level, mem::Addr next_table,
              ContextId ctx = tlb::defaultContext);

    /** Drops all entries (counters included). */
    void invalidateAll();

    /**
     * Test accessor: current pin-counter value of the entry covering
     * @p va_page at @p level in @p ctx, or nullopt if no valid entry
     * covers it. No LRU/counter side effects.
     * @pre level is Pml4, Pdpt, or Pd.
     */
    std::optional<std::uint8_t>
    peekCounter(mem::Addr va_page, vm::PtLevel level,
                ContextId ctx = tlb::defaultContext) const;

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t pinnedSkips() const { return pinnedSkips_.value(); }

    sim::StatGroup &stats() { return statGroup_; }

  private:
    static constexpr std::size_t npos = sim::SetAssocTags::npos;

    /** One per-level set-associative cache. Entries are ASID-tagged:
     *  a region base never matches across contexts. */
    struct LevelCache
    {
        LevelCache(std::size_t sets, unsigned ways)
            : numSets(sets), tags(sets, ways), nextTable(sets * ways, 0),
              counter(sets * ways, 0)
        {}

        std::size_t numSets;
        /** keyOf() per way; slot = set * ways + way. */
        sim::SetAssocTags tags;
        std::vector<mem::Addr> nextTable;  ///< by slot
        std::vector<std::uint8_t> counter; ///< 2-bit saturating pins

        /** Valid bit, then mem::pageCtxKey of (ctx, region). */
        static std::uint64_t
        keyOf(mem::Addr region, ContextId ctx)
        {
            return (std::uint64_t{1} << 63) | mem::pageCtxKey(ctx, region);
        }

        std::size_t setOf(mem::Addr region) const;
        /** Slot of the valid entry for (@p region, @p ctx), or npos. */
        std::size_t find(mem::Addr region, ContextId ctx) const;
    };

    /** Index 0 -> PD (level 2), 1 -> PDPT (3), 2 -> PML4 (4). */
    static constexpr unsigned levelIndex(vm::PtLevel l)
    {
        return static_cast<unsigned>(l) - 2;
    }

    LevelCache &cacheFor(vm::PtLevel l) { return caches_[levelIndex(l)]; }
    const LevelCache &cacheFor(vm::PtLevel l) const
    {
        return caches_[levelIndex(l)];
    }

    PwcConfig cfg_;

    /** Registered per-context walk roots, indexed by ContextId (the
     *  system hands out small dense IDs). */
    std::vector<mem::Addr> roots_;
    std::vector<std::uint8_t> registered_;

    std::array<LevelCache, 3> caches_;

    sim::StatGroup statGroup_;
    sim::Counter hits_{"hits", "walk-time PWC hits (deepest level)"};
    sim::Counter misses_{"misses", "walk-time PWC full misses"};
    sim::Counter fills_{"fills", "entries installed"};
    sim::Counter pinnedSkips_{
        "pinned_skips", "victims skipped due to non-zero counters"};
};

} // namespace gpuwalk::iommu

#endif // GPUWALK_IOMMU_PAGE_WALK_CACHE_HH

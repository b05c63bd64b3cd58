#include "iommu/page_walk_cache.hh"

namespace gpuwalk::iommu {

namespace {

/** Sets per level of @p cfg, after checking the geometry. */
std::size_t
checkedSets(const PwcConfig &cfg)
{
    GPUWALK_ASSERT(cfg.entriesPerLevel % cfg.associativity == 0,
                   "PWC entries not divisible by associativity");
    return cfg.entriesPerLevel / cfg.associativity;
}

} // namespace

PageWalkCache::PageWalkCache(const PwcConfig &cfg, mem::Addr root)
    : cfg_(cfg),
      caches_{LevelCache(checkedSets(cfg), cfg.associativity),
              LevelCache(checkedSets(cfg), cfg.associativity),
              LevelCache(checkedSets(cfg), cfg.associativity)},
      statGroup_("pwc")
{
    registerContext(tlb::defaultContext, root);
    statGroup_.add(hits_);
    statGroup_.add(misses_);
    statGroup_.add(fills_);
    statGroup_.add(pinnedSkips_);
}

std::size_t
PageWalkCache::LevelCache::setOf(mem::Addr region) const
{
    // Hash the region base down to a set; the shift removes the
    // guaranteed-zero low bits so neighbouring regions spread out.
    return static_cast<std::size_t>((region >> 21) ^ (region >> 30))
           % numSets;
}

std::size_t
PageWalkCache::LevelCache::find(mem::Addr region, ContextId ctx) const
{
    return tags.find(setOf(region), keyOf(region, ctx));
}

void
PageWalkCache::registerContext(ContextId ctx, mem::Addr root)
{
    if (roots_.size() <= ctx) {
        roots_.resize(ctx + 1, 0);
        registered_.resize(ctx + 1, 0);
    }
    GPUWALK_ASSERT(!registered_[ctx], "context ", ctx,
                   " registered twice");
    roots_[ctx] = root;
    registered_[ctx] = 1;
}

bool
PageWalkCache::contextRegistered(ContextId ctx) const
{
    return ctx < registered_.size() && registered_[ctx];
}

mem::Addr
PageWalkCache::rootOf(ContextId ctx) const
{
    GPUWALK_ASSERT(contextRegistered(ctx),
                   "translation for unregistered context ", ctx,
                   " (no page-table root attached)");
    return roots_[ctx];
}

unsigned
PageWalkCache::probeEstimate(mem::Addr va_page, ContextId ctx)
{
    GPUWALK_ASSERT(contextRegistered(ctx),
                   "scoring probe for unregistered context ", ctx);
    // Deepest hit wins: a PD-level entry alone lets the walk jump
    // straight to the leaf (Barr et al.'s "skip, don't walk"), so the
    // caches are searched bottom-up and independently.
    for (unsigned l = 2; l <= vm::numPtLevels; ++l) {
        const auto level = vm::PtLevel{l};
        LevelCache &cache = cacheFor(level);
        const std::size_t slot =
            cache.find(vm::PageTable::regionBase(va_page, level), ctx);
        if (slot != npos) {
            if (cache.counter[slot] < 3)
                ++cache.counter[slot];
            return l - 1;
        }
    }
    return vm::numPtLevels;
}

unsigned
PageWalkCache::peekEstimate(mem::Addr va_page, ContextId ctx) const
{
    for (unsigned l = 2; l <= vm::numPtLevels; ++l) {
        const auto level = vm::PtLevel{l};
        const mem::Addr region = vm::PageTable::regionBase(va_page, level);
        if (cacheFor(level).find(region, ctx) != npos)
            return l - 1;
    }
    return vm::numPtLevels;
}

WalkStart
PageWalkCache::lookup(mem::Addr va_page, ContextId ctx,
                      bool consume_pins)
{
    // rootOf() is the unregistered-context backstop: a walk of a
    // context nobody attached a page table for dies here rather than
    // dereferencing another tenant's tables.
    const mem::Addr root = rootOf(ctx);
    for (unsigned l = 2; l <= vm::numPtLevels; ++l) {
        const auto level = vm::PtLevel{l};
        LevelCache &cache = cacheFor(level);
        const mem::Addr region = vm::PageTable::regionBase(va_page, level);
        const std::size_t set = cache.setOf(region);
        const std::size_t slot =
            cache.tags.find(set, LevelCache::keyOf(region, ctx));
        if (slot != npos) {
            ++hits_;
            cache.tags.touch(set, slot);
            if (consume_pins && cache.counter[slot] > 0)
                --cache.counter[slot];
            return WalkStart{l - 1, cache.nextTable[slot]};
        }
    }
    ++misses_;
    return WalkStart{vm::numPtLevels, root};
}

void
PageWalkCache::fill(mem::Addr va_page, vm::PtLevel level,
                    mem::Addr next_table, ContextId ctx)
{
    GPUWALK_ASSERT(level == vm::PtLevel::Pml4 || level == vm::PtLevel::Pdpt
                       || level == vm::PtLevel::Pd,
                   "PWC only caches the three upper levels");
    GPUWALK_ASSERT(contextRegistered(ctx),
                   "PWC fill for unregistered context ", ctx);
    LevelCache &cache = cacheFor(level);
    const mem::Addr region = vm::PageTable::regionBase(va_page, level);

    const std::size_t set = cache.setOf(region);
    const std::uint64_t key = LevelCache::keyOf(region, ctx);
    if (const std::size_t slot = cache.tags.find(set, key); slot != npos) {
        cache.nextTable[slot] = next_table;
        cache.tags.touch(set, slot);
        return;
    }

    // Victim selection: LRU among unpinned entries first (the paper's
    // counter-guarded replacement); fall back to plain LRU when every
    // entry in the set is pinned. A pinned entry counts one skip. Only
    // valid entries hold pins, and they fill a set lowest way first
    // with no single-entry invalidation, so any pinned entry precedes
    // an invalid victim.
    std::size_t victim = cache.tags.victim(set);
    if (cfg_.pinScoredEntries) {
        const std::size_t base = set * cache.tags.ways();
        bool pinned = false;
        for (std::size_t i = base; i < base + cache.tags.ways(); ++i)
            pinned = pinned || cache.counter[i] > 0;
        if (pinned && cache.tags.key(victim) != 0) {
            // Walk the recency list from the LRU end.
            std::size_t s = victim;
            for (unsigned seen = 1; cache.counter[s] > 0; ++seen) {
                if (seen == cache.tags.ways()) {
                    pinned = false; // all pinned: plain LRU, no skip
                    s = victim;
                    break;
                }
                s = cache.tags.newer(set, s);
            }
            victim = s;
        }
        if (pinned)
            ++pinnedSkips_;
    }

    ++fills_;
    cache.tags.fill(set, victim, key);
    cache.nextTable[victim] = next_table;
    cache.counter[victim] = 0;
}

std::optional<std::uint8_t>
PageWalkCache::peekCounter(mem::Addr va_page, vm::PtLevel level,
                           ContextId ctx) const
{
    GPUWALK_ASSERT(level == vm::PtLevel::Pml4 || level == vm::PtLevel::Pdpt
                       || level == vm::PtLevel::Pd,
                   "PWC only caches the three upper levels");
    const LevelCache &cache = cacheFor(level);
    const std::size_t slot =
        cache.find(vm::PageTable::regionBase(va_page, level), ctx);
    if (slot == npos)
        return std::nullopt;
    return cache.counter[slot];
}

void
PageWalkCache::invalidateAll()
{
    for (auto &c : caches_) {
        c.tags.invalidateAll();
        std::fill(c.counter.begin(), c.counter.end(), std::uint8_t{0});
    }
}

} // namespace gpuwalk::iommu

#include "tlb/set_assoc_tlb.hh"

#include <bit>

namespace gpuwalk::tlb {

namespace {

/** 2 MB-granular virtual page number. */
constexpr mem::Addr
largeVpn(mem::Addr va)
{
    return va >> 21;
}

constexpr mem::Addr largeOffsetPages = (1 << 21) >> mem::pageShift;

/** The set count of @p cfg, after checking the geometry. */
std::size_t
checkedSets(const TlbConfig &cfg)
{
    GPUWALK_ASSERT(cfg.entries > 0, "TLB must have entries");
    GPUWALK_ASSERT(cfg.entries % cfg.associativity == 0,
                   "entries not divisible by associativity in ",
                   cfg.name);
    GPUWALK_ASSERT(std::has_single_bit(cfg.sets()),
                   "TLB set count must be a power of two in ", cfg.name);
    return cfg.sets();
}

} // namespace

SetAssocTlb::SetAssocTlb(const TlbConfig &cfg)
    : cfg_(cfg), numSets_(checkedSets(cfg)),
      tags_(numSets_, cfg.associativity), ppn_(cfg.entries, 0),
      statGroup_(cfg.name)
{
    statGroup_.add(hits_);
    statGroup_.add(misses_);
    statGroup_.add(insertions_);
    statGroup_.add(evictions_);
}

SetAssocTlb::Found
SetAssocTlb::findSlot(mem::Addr va_page, bool large, ContextId ctx) const
{
    if (large && largeResident_ == 0)
        return {};
    const mem::Addr vpn =
        large ? largeVpn(va_page) : mem::pageNumber(va_page);
    const std::size_t set = setIndex(vpn, ctx);
    // The context tag is part of the key: a VPN never hits across
    // address spaces.
    return {set, tags_.find(set, matchKey(vpn, large, ctx))};
}

SetAssocTlb::Found
SetAssocTlb::findAny(mem::Addr va_page, ContextId ctx) const
{
    // Small entries first (exact match), then the covering 2 MB entry.
    const Found small = findSlot(va_page, /*large=*/false, ctx);
    return small.slot != npos ? small
                              : findSlot(va_page, /*large=*/true, ctx);
}

TlbHit
SetAssocTlb::hitAt(std::size_t i, mem::Addr va_page) const
{
    if (!(tags_.key(i) & largeBit))
        return TlbHit{ppn_[i] << mem::pageShift, false};
    const mem::Addr base = ppn_[i] << 21;
    const mem::Addr offset =
        (mem::pageNumber(va_page) % largeOffsetPages) << mem::pageShift;
    return TlbHit{base | offset, true};
}

std::optional<TlbHit>
SetAssocTlb::lookupEntry(mem::Addr va_page, ContextId ctx)
{
    const Found f = findAny(va_page, ctx);
    if (f.slot == npos) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    tags_.touch(f.set, f.slot);
    return hitAt(f.slot, va_page);
}

std::optional<mem::Addr>
SetAssocTlb::lookup(mem::Addr va_page, ContextId ctx)
{
    const auto hit = lookupEntry(va_page, ctx);
    if (!hit)
        return std::nullopt;
    return hit->paPage;
}

std::optional<mem::Addr>
SetAssocTlb::probe(mem::Addr va_page, ContextId ctx) const
{
    const Found f = findAny(va_page, ctx);
    if (f.slot == npos)
        return std::nullopt;
    return hitAt(f.slot, va_page).paPage;
}

void
SetAssocTlb::insert(mem::Addr va_page, mem::Addr pa_page,
                    bool large_page, ContextId ctx)
{
    const mem::Addr vpn = large_page ? largeVpn(va_page)
                                     : mem::pageNumber(va_page);
    const mem::Addr ppn = large_page ? (pa_page >> 21)
                                     : mem::pageNumber(pa_page);

    // A duplicate fill is refreshed in place; otherwise the victim is
    // the first invalid way, or failing that the true-LRU way.
    const std::uint64_t want = matchKey(vpn, large_page, ctx);
    const std::size_t set = setIndex(vpn, ctx);
    if (const std::size_t dup = tags_.find(set, want); dup != npos) {
        ppn_[dup] = ppn;
        tags_.touch(set, dup);
        return;
    }
    const std::size_t victim = tags_.victim(set);
    if (const std::uint64_t old = tags_.key(victim)) {
        ++evictions_;
        if (old & largeBit)
            --largeResident_;
    }

    ++insertions_;
    tags_.fill(set, victim, want);
    ppn_[victim] = ppn;
    if (large_page)
        ++largeResident_;
}

void
SetAssocTlb::invalidateAll()
{
    tags_.invalidateAll();
    largeResident_ = 0;
}

bool
SetAssocTlb::invalidate(mem::Addr va_page, ContextId ctx)
{
    const Found f = findAny(va_page, ctx);
    if (f.slot == npos)
        return false;
    if (tags_.key(f.slot) & largeBit)
        --largeResident_;
    tags_.invalidate(f.set, f.slot);
    return true;
}

unsigned
SetAssocTlb::population() const
{
    return static_cast<unsigned>(tags_.population());
}

} // namespace gpuwalk::tlb

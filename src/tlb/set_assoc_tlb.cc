#include "tlb/set_assoc_tlb.hh"

#include <algorithm>
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

} // namespace

SetAssocTlb::SetAssocTlb(const TlbConfig &cfg)
    : cfg_(cfg), statGroup_(cfg.name)
{
    GPUWALK_ASSERT(cfg_.entries > 0, "TLB must have entries");
    GPUWALK_ASSERT(cfg_.entries % cfg_.associativity == 0,
                   "entries not divisible by associativity in ",
                   cfg_.name);
    numSets_ = cfg_.sets();
    GPUWALK_ASSERT(std::has_single_bit(numSets_),
                   "TLB set count must be a power of two in ",
                   cfg_.name);
    const std::size_t slots = numSets_ * cfg_.associativity;
    key_.assign(slots, 0);
    ppn_.assign(slots, 0);
    lastUse_.assign(slots, 0);

    statGroup_.add(hits_);
    statGroup_.add(misses_);
    statGroup_.add(insertions_);
    statGroup_.add(evictions_);
}

std::size_t
SetAssocTlb::findSlot(mem::Addr va_page, bool large, ContextId ctx) const
{
    if (large && largeResident_ == 0)
        return npos;
    const mem::Addr vpn =
        large ? largeVpn(va_page) : mem::pageNumber(va_page);
    const std::size_t base = setIndex(vpn, ctx) * cfg_.associativity;
    // The context tag is part of the key: a VPN never hits across
    // address spaces.
    const std::uint64_t want = matchKey(vpn, large, ctx);
    for (std::size_t i = base; i < base + cfg_.associativity; ++i) {
        if (key_[i] == want)
            return i;
    }
    return npos;
}

std::size_t
SetAssocTlb::findAny(mem::Addr va_page, ContextId ctx) const
{
    // Small entries first (exact match), then the covering 2 MB entry.
    const std::size_t small = findSlot(va_page, /*large=*/false, ctx);
    return small != npos ? small : findSlot(va_page, /*large=*/true,
                                            ctx);
}

TlbHit
SetAssocTlb::hitAt(std::size_t i, mem::Addr va_page) const
{
    if (!(key_[i] & largeBit))
        return TlbHit{ppn_[i] << mem::pageShift, false};
    const mem::Addr base = ppn_[i] << 21;
    const mem::Addr offset =
        (mem::pageNumber(va_page) % largeOffsetPages) << mem::pageShift;
    return TlbHit{base | offset, true};
}

std::optional<TlbHit>
SetAssocTlb::lookupEntry(mem::Addr va_page, ContextId ctx)
{
    const std::size_t i = findAny(va_page, ctx);
    if (i == npos) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    lastUse_[i] = ++useClock_;
    return hitAt(i, va_page);
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
    const std::size_t i = findAny(va_page, ctx);
    if (i == npos)
        return std::nullopt;
    return hitAt(i, va_page).paPage;
}

void
SetAssocTlb::insert(mem::Addr va_page, mem::Addr pa_page,
                    bool large_page, ContextId ctx)
{
    const mem::Addr vpn = large_page ? largeVpn(va_page)
                                     : mem::pageNumber(va_page);
    const mem::Addr ppn = large_page ? (pa_page >> 21)
                                     : mem::pageNumber(pa_page);

    // One pass over the set: a duplicate fill is refreshed in place;
    // otherwise the victim is the first invalid way, or failing that
    // the true-LRU way (first-encountered on lastUse ties).
    const std::uint64_t want = matchKey(vpn, large_page, ctx);
    const std::size_t base = setIndex(vpn, ctx) * cfg_.associativity;
    std::size_t invalid = npos;
    std::size_t lru = base;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::size_t i = base; i < base + cfg_.associativity; ++i) {
        const std::uint64_t key = key_[i];
        if (key == want) {
            ppn_[i] = ppn;
            lastUse_[i] = ++useClock_;
            return;
        }
        if (!(key & validBit)) {
            if (invalid == npos)
                invalid = i;
        } else if (lastUse_[i] < oldest) {
            oldest = lastUse_[i];
            lru = i;
        }
    }
    std::size_t victim = invalid;
    if (victim == npos) {
        victim = lru;
        ++evictions_;
        if (key_[victim] & largeBit)
            --largeResident_;
    }

    ++insertions_;
    key_[victim] = want;
    ppn_[victim] = ppn;
    lastUse_[victim] = ++useClock_;
    if (large_page)
        ++largeResident_;
}

void
SetAssocTlb::invalidateAll()
{
    std::fill(key_.begin(), key_.end(), std::uint64_t{0});
    largeResident_ = 0;
}

bool
SetAssocTlb::invalidate(mem::Addr va_page, ContextId ctx)
{
    const std::size_t i = findAny(va_page, ctx);
    if (i == npos)
        return false;
    if (key_[i] & largeBit)
        --largeResident_;
    key_[i] = 0;
    return true;
}

unsigned
SetAssocTlb::population() const
{
    unsigned n = 0;
    for (const std::uint64_t key : key_)
        n += (key & validBit) ? 1 : 0;
    return n;
}

} // namespace gpuwalk::tlb

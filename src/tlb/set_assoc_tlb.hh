/**
 * @file
 * Generic set-associative TLB with true-LRU replacement.
 *
 * Instantiated as: per-CU L1 TLB (32-entry fully associative), the
 * GPU-wide shared L2 TLB (512-entry 16-way), and the IOMMU's own two
 * TLB levels (Table I).
 *
 * Each way's valid bit, 2 MB bit, context and VPN are packed into one
 * 64-bit match key held by a sim::SetAssocTags, which finds a key by
 * fingerprint and picks the LRU victim in O(1); the PPN column beside
 * it is only touched on a hit or a fill. The set count must be a power
 * of two so indexing is a mask, not a division — every Table I
 * geometry qualifies.
 */

#ifndef GPUWALK_TLB_SET_ASSOC_TLB_HH
#define GPUWALK_TLB_SET_ASSOC_TLB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/set_assoc_tags.hh"
#include "sim/stats.hh"
#include "tlb/translation.hh"

namespace gpuwalk::tlb {

/** Geometry of one TLB. */
struct TlbConfig
{
    std::string name = "tlb";
    unsigned entries = 32;
    /** Ways; equal to entries for fully associative. */
    unsigned associativity = 32;

    unsigned sets() const { return entries / associativity; }
};

/** A successful TLB lookup: the 4 KB-granular PA + entry size. */
struct TlbHit
{
    mem::Addr paPage = 0;  ///< page-aligned physical address
    bool largePage = false;
};

/**
 * A set-associative translation cache: VPN -> PPN.
 *
 * Supports mixed 4 KB and 2 MB entries in one structure (a MIX-TLB-
 * style design, which the paper cites): large entries are tagged and
 * indexed at 2 MB granularity, so one entry covers 512 base pages —
 * the "reach" benefit the paper's §VI discussion weighs.
 */
class SetAssocTlb
{
  public:
    explicit SetAssocTlb(const TlbConfig &cfg);

    /**
     * Looks up the page-aligned VA @p va_page under context @p ctx,
     * updating LRU on hit. An entry only hits in its own context.
     * @return the page-aligned PA, or nullopt on miss.
     */
    std::optional<mem::Addr> lookup(mem::Addr va_page,
                                    ContextId ctx = defaultContext);

    /** Like lookup, but also reports the hitting entry's page size. */
    std::optional<TlbHit> lookupEntry(mem::Addr va_page,
                                      ContextId ctx = defaultContext);

    /** Lookup without LRU update or stats (for tests/inspection). */
    std::optional<mem::Addr> probe(mem::Addr va_page,
                                   ContextId ctx = defaultContext) const;

    /**
     * Installs a translation for @p ctx, evicting LRU within the set
     * if full. With @p large_page, the entry covers the whole 2 MB
     * region of @p va_page (addresses may be given at 4 KB
     * granularity).
     */
    void insert(mem::Addr va_page, mem::Addr pa_page,
                bool large_page = false,
                ContextId ctx = defaultContext);

    /** Drops every entry. */
    void invalidateAll();

    /** Drops one translation if present. @return true if it existed. */
    bool invalidate(mem::Addr va_page, ContextId ctx = defaultContext);

    const TlbConfig &config() const { return cfg_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    double
    hitRate() const
    {
        const std::uint64_t t = hits_.value() + misses_.value();
        return t ? static_cast<double>(hits_.value()) / t : 0.0;
    }

    /** Number of valid entries currently resident. */
    unsigned population() const;

    sim::StatGroup &stats() { return statGroup_; }

  private:
    static constexpr std::size_t npos = sim::SetAssocTags::npos;

    // Match-key layout: [63] valid, [62] 2 MB, [61:46] context,
    // [45:0] VPN. An invalid way's key is 0, which no lookup forms.
    static constexpr unsigned vpnBits = 46;
    static constexpr std::uint64_t validBit = std::uint64_t{1} << 63;
    static constexpr std::uint64_t largeBit = std::uint64_t{1} << 62;
    static_assert(sizeof(ContextId) * 8 <= 62 - vpnBits,
                  "context tag does not fit the match key");

    static std::uint64_t
    matchKey(mem::Addr vpn, bool large, ContextId ctx)
    {
        GPUWALK_ASSERT(vpn < (mem::Addr(1) << vpnBits),
                       "VPN does not fit the TLB match key");
        return validBit | (large ? largeBit : 0)
               | (std::uint64_t(ctx) << vpnBits) | vpn;
    }

    std::size_t
    setIndex(mem::Addr vpn, ContextId ctx) const
    {
        // XOR-folded index: power-of-two strided VPN sequences (page
        // strides of matrix rows) would otherwise collide into a few
        // sets; hardware TLBs hash the index for the same reason. The
        // context term spreads tenants sharing a VA layout across
        // sets; it vanishes at ctx 0, keeping single-tenant indexing
        // bit-identical to the pre-ASID implementation.
        const mem::Addr h = vpn ^ (vpn >> 5) ^ (vpn >> 10)
                            ^ (mem::Addr(ctx) * 0x9e3779b9u);
        return static_cast<std::size_t>(h) & (numSets_ - 1);
    }

    /** Where an entry lives: its set and slot (slot npos when
     *  absent). */
    struct Found
    {
        std::size_t set = 0;
        std::size_t slot = npos;
    };

    /** The entry matching (@p va_page, @p ctx, @p large). */
    Found findSlot(mem::Addr va_page, bool large, ContextId ctx) const;

    /** Small-before-large match of (@p va_page, @p ctx). */
    Found findAny(mem::Addr va_page, ContextId ctx) const;

    /** The 4 KB-granular PA of @p va_page through slot @p i's entry. */
    TlbHit hitAt(std::size_t i, mem::Addr va_page) const;

    TlbConfig cfg_;
    std::size_t numSets_;

    /** matchKey() per way; slot = set * associativity + way. */
    sim::SetAssocTags tags_;
    std::vector<mem::Addr> ppn_; ///< by slot

    /** Valid 2 MB entries resident; when zero, the large-tag probe of
     *  every lookup and fill short-circuits (most runs never install
     *  one). */
    std::size_t largeResident_ = 0;

    sim::StatGroup statGroup_;
    sim::Counter hits_{"hits", "TLB hits"};
    sim::Counter misses_{"misses", "TLB misses"};
    sim::Counter insertions_{"insertions", "fills"};
    sim::Counter evictions_{"evictions", "valid entries evicted"};
};

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_SET_ASSOC_TLB_HH

/**
 * @file
 * The tag store shared by every set-associative structure on the
 * translation and data paths: the TLBs (tlb::SetAssocTlb) and the data
 * and walk caches (mem::Cache).
 *
 * Each way holds one nonzero 64-bit key; 0 marks an invalid way. The
 * owner packs whatever identifies an entry (tag, context, page size)
 * into the key and keeps its payload (PPN, dirty bit) in its own
 * column, indexed by the same slot (set * ways + way).
 *
 * Replacement is exact true LRU, in O(1):
 *  - a lookup compares a 1-byte fingerprint of the key against eight
 *    ways at a time (portable SWAR on uint64_t words), then checks the
 *    full key of each candidate, so a set is never scanned key by key;
 *  - each set keeps its ways on a circular move-to-front list held in
 *    two uint8_t link arrays, so the least recently used way is the
 *    one before the head;
 *  - each set keeps a bitmask of its invalid ways.
 * The victim is the lowest invalid way, else the list tail. That is
 * the rule "first invalid way, else the lowest last-use stamp": stamps
 * are unique, and move-to-front order is stamp order for every way
 * touched since it last became valid — which, once no way is invalid,
 * is every way.
 *
 * A set's fingerprints, invalid mask, head and links share one block
 * of 64-byte-aligned words (one host cache line at 16 ways), so a
 * lookup and a fill touch that line plus the keys they compare or
 * replace.
 */

#ifndef GPUWALK_SIM_SET_ASSOC_TAGS_HH
#define GPUWALK_SIM_SET_ASSOC_TAGS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <new>
#include <vector>

#include "sim/logging.hh"

namespace gpuwalk::sim {

/** Keys, fingerprints, recency lists and invalid masks of a
 *  set-associative structure of up to 64 ways. */
class SetAssocTags
{
  public:
    static constexpr std::size_t npos = ~std::size_t{0};
    static constexpr unsigned maxWays = 64;

    SetAssocTags(std::size_t sets, unsigned ways)
        : ways_(ways), fpWords_((ways + 7) / 8)
    {
        GPUWALK_ASSERT(sets > 0 && ways > 0 && ways <= maxWays,
                       "tag store needs 1 to ", maxWays, " ways, got ",
                       ways);
        // Block: fingerprint words, the invalid mask, then the bytes
        // head, next[ways], prev[ways]; padded to a power of two so a
        // block of at most 8 words never straddles a line.
        const std::size_t link_words = (1 + 2 * std::size_t{ways} + 7) / 8;
        stride_ = std::bit_ceil(fpWords_ + 1 + link_words);
        // The last fingerprint word of a set may be partly past its
        // ways (2- and 4-way sets, or a way count not a multiple of
        // 8); its match mask covers only real ways.
        const unsigned tail = ways - (fpWords_ - 1) * 8;
        tailMask_ = tail == 8 ? highBits
                              : highBits & ((std::uint64_t{1} << (8 * tail))
                                            - 1);
        allWays_ = ways == 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << ways) - 1;
        key_.assign(sets * ways, 0);
        // Every set starts as the same block: all ways invalid, listed
        // 0, 1, ..., ways - 1 from the head. The order only matters
        // once every way is valid, by when each has been filled and so
        // moved to the front.
        std::vector<std::uint64_t> empty(stride_, 0);
        empty[fpWords_] = allWays_;
        auto *next = reinterpret_cast<std::uint8_t *>(&empty[fpWords_ + 1])
                     + 1;
        std::uint8_t *prev = next + ways;
        for (unsigned w = 0; w < ways; ++w) {
            next[w] = static_cast<std::uint8_t>((w + 1) % ways);
            prev[w] = static_cast<std::uint8_t>((w + ways - 1) % ways);
        }
        meta_.reserve(sets * stride_);
        for (std::size_t s = 0; s < sets; ++s)
            meta_.insert(meta_.end(), empty.begin(), empty.end());
    }

    unsigned ways() const { return ways_; }

    /** Key of @p slot; 0 when the way is invalid. */
    std::uint64_t key(std::size_t slot) const { return key_[slot]; }

    /** Slot of the valid way of @p set holding @p key, or npos. */
    std::size_t
    find(std::size_t set, std::uint64_t key) const
    {
        const std::uint64_t pattern = std::uint64_t{fingerprint(key)}
                                      * lowBits;
        const std::uint64_t *fp = block(set);
        const std::size_t base = set * ways_;
        for (unsigned w = 0; w < fpWords_; ++w) {
            // Exact zero-byte test: a byte's high bit survives iff the
            // fingerprint byte equals the pattern byte.
            const std::uint64_t x = fp[w] ^ pattern;
            std::uint64_t hit =
                ~(((x & ~highBits) + ~highBits) | x | ~highBits);
            if (w + 1 == fpWords_)
                hit &= tailMask_;
            // The group's eight keys fill one host cache line. Reading
            // its first key beside the fingerprint word starts that
            // line's load at once, instead of after the fingerprint
            // compare names a candidate; a match there already has its
            // fingerprint bit set, so the mask is unchanged.
            hit |= std::uint64_t{key_[base + 8 * w] == key} << 7;
            while (hit) {
                const std::size_t slot =
                    base + 8 * w
                    + static_cast<unsigned>(std::countr_zero(hit)) / 8;
                if (key_[slot] == key)
                    return slot;
                hit &= hit - 1;
            }
        }
        return npos;
    }

    /** Makes @p slot of @p set the most recently used way. */
    void
    touch(std::size_t set, std::size_t slot)
    {
        const auto way = static_cast<std::uint8_t>(slot - set * ways_);
        std::uint8_t &head = headOf(set);
        if (way == head)
            return;
        std::uint8_t *next = nextOf(set);
        std::uint8_t *prev = prevOf(set);
        const std::uint8_t tail = prev[head];
        if (way != tail) {
            // Unlink, then splice in between the tail and the head.
            next[prev[way]] = next[way];
            prev[next[way]] = prev[way];
            next[way] = head;
            prev[way] = tail;
            next[tail] = way;
            prev[head] = way;
        }
        // The tail already sits just before the head: moving it to the
        // front is a rotation of the circular list.
        head = way;
    }

    /** The slot a fill of @p set replaces: its lowest invalid way,
     *  else its least recently used way. */
    std::size_t
    victim(std::size_t set) const
    {
        const std::size_t base = set * ways_;
        if (const std::uint64_t inv = invalidMask(set))
            return base + static_cast<unsigned>(std::countr_zero(inv));
        return base + prevOf(set)[headOf(set)];
    }

    /** The slot of @p set used next more recently than @p slot; from
     *  the LRU way, repeated calls visit the set in recency order. */
    std::size_t
    newer(std::size_t set, std::size_t slot) const
    {
        const std::size_t base = set * ways_;
        return base + prevOf(set)[slot - base];
    }

    /** Installs nonzero @p key in @p slot of @p set and makes it the
     *  most recently used way. */
    void
    fill(std::size_t set, std::size_t slot, std::uint64_t key)
    {
        const std::size_t way = slot - set * ways_;
        key_[slot] = key;
        std::uint64_t &word = block(set)[way / 8];
        const unsigned shift = 8 * (way % 8);
        word = (word & ~(std::uint64_t{0xff} << shift))
               | (std::uint64_t{fingerprint(key)} << shift);
        invalidMask(set) &= ~(std::uint64_t{1} << way);
        touch(set, slot);
    }

    /** Invalidates @p slot of @p set. A stale fingerprint only costs a
     *  failed key check until the way is filled again. */
    void
    invalidate(std::size_t set, std::size_t slot)
    {
        key_[slot] = 0;
        invalidMask(set) |= std::uint64_t{1} << (slot - set * ways_);
    }

    void
    invalidateAll()
    {
        std::fill(key_.begin(), key_.end(), std::uint64_t{0});
        for (std::size_t s = 0; s < sets(); ++s)
            invalidMask(s) = allWays_;
    }

    /** Number of valid ways. */
    std::size_t
    population() const
    {
        std::size_t invalid = 0;
        for (std::size_t s = 0; s < sets(); ++s)
            invalid += static_cast<std::size_t>(std::popcount(invalidMask(s)));
        return key_.size() - invalid;
    }

    /** The 1-byte fingerprint of @p key: the top byte of a Fibonacci
     *  hash, so every key bit reaches it. */
    static std::uint8_t
    fingerprint(std::uint64_t key)
    {
        return static_cast<std::uint8_t>((key * 0x9e3779b97f4a7c15ull)
                                         >> 56);
    }

  private:
    static constexpr std::uint64_t lowBits = 0x0101010101010101ull;
    static constexpr std::uint64_t highBits = 0x8080808080808080ull;

    /** Allocates on 64-byte boundaries, so each set's block starts a
     *  host cache line (or a power-of-two part of one), and so does
     *  each group of eight keys when the way count is a multiple of 8. */
    template <typename T>
    struct LineAligned
    {
        using value_type = T;
        static constexpr std::align_val_t align{64};

        LineAligned() = default;
        template <typename U>
        LineAligned(const LineAligned<U> &)
        {}

        T *
        allocate(std::size_t n)
        {
            return static_cast<T *>(::operator new(n * sizeof(T), align));
        }
        void deallocate(T *p, std::size_t) { ::operator delete(p, align); }

        friend bool
        operator==(const LineAligned &, const LineAligned &)
        {
            return true;
        }
    };

    std::size_t sets() const { return meta_.size() / stride_; }

    const std::uint64_t *block(std::size_t set) const
    {
        return &meta_[set * stride_];
    }
    std::uint64_t *block(std::size_t set) { return &meta_[set * stride_]; }

    std::uint64_t &invalidMask(std::size_t set)
    {
        return block(set)[fpWords_];
    }
    std::uint64_t invalidMask(std::size_t set) const
    {
        return block(set)[fpWords_];
    }

    // Link bytes, read through unsigned char, which may alias the
    // block's words: [0] head (most recently used way), then next[]
    // (toward less recently used), then prev[].
    std::uint8_t *links(std::size_t set)
    {
        return reinterpret_cast<std::uint8_t *>(block(set) + fpWords_ + 1);
    }
    const std::uint8_t *links(std::size_t set) const
    {
        return reinterpret_cast<const std::uint8_t *>(block(set) + fpWords_
                                                      + 1);
    }
    std::uint8_t &headOf(std::size_t set) { return links(set)[0]; }
    std::uint8_t headOf(std::size_t set) const { return links(set)[0]; }
    std::uint8_t *nextOf(std::size_t set) { return links(set) + 1; }
    std::uint8_t *prevOf(std::size_t set) { return links(set) + 1 + ways_; }
    const std::uint8_t *prevOf(std::size_t set) const
    {
        return links(set) + 1 + ways_;
    }

    unsigned ways_;
    unsigned fpWords_;            ///< fingerprint words per set
    std::size_t stride_ = 0;      ///< block words per set
    std::uint64_t tailMask_ = 0;  ///< real ways of a set's last fp word
    std::uint64_t allWays_ = 0;   ///< one bit per way

    std::vector<std::uint64_t, LineAligned<std::uint64_t>> key_; ///< by slot
    std::vector<std::uint64_t, LineAligned<std::uint64_t>> meta_;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_SET_ASSOC_TAGS_HH

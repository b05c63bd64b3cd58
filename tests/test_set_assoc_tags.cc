/**
 * @file
 * Unit tests for sim::SetAssocTags, the tag store under the TLBs and
 * the caches: fingerprint collisions fall back to the full key, the
 * match mask of partial fingerprint words, and the victim rule (lowest
 * invalid way, else least recently used) against a stamp model at
 * every way count from 1 to 64.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/set_assoc_tags.hh"

namespace {

using gpuwalk::sim::Rng;
using gpuwalk::sim::SetAssocTags;

/** The first @p n nonzero keys whose fingerprint is @p fp. */
std::vector<std::uint64_t>
keysWithFingerprint(std::uint8_t fp, std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < n; ++k) {
        if (SetAssocTags::fingerprint(k) == fp)
            keys.push_back(k);
    }
    return keys;
}

TEST(SetAssocTags, EmptyStoreFindsNothing)
{
    SetAssocTags tags(4, 16);
    EXPECT_EQ(tags.find(2, 12345), SetAssocTags::npos);
    EXPECT_EQ(tags.population(), 0u);
    EXPECT_EQ(tags.victim(2), 2u * 16);
}

TEST(SetAssocTags, FingerprintCollisionsCheckTheFullKey)
{
    // Every way of a 16-way set holds a key with the same fingerprint,
    // so each lookup sees 16 candidates and must pick by full key.
    SetAssocTags tags(1, 16);
    const auto keys = keysWithFingerprint(7, 17);
    for (std::size_t w = 0; w < 16; ++w)
        tags.fill(0, tags.victim(0), keys[w]);
    for (std::size_t w = 0; w < 16; ++w)
        EXPECT_EQ(tags.find(0, keys[w]), w);
    EXPECT_EQ(tags.find(0, keys[16]), SetAssocTags::npos);
}

TEST(SetAssocTags, PartialWordsMatchOnlyTheirOwnWays)
{
    // 2- and 4-way sets share a fingerprint word with nothing, but the
    // bytes past the last way read as fingerprint 0: a key whose
    // fingerprint is 0 must not match them.
    const std::uint64_t zero_fp = keysWithFingerprint(0, 1).front();
    for (const unsigned ways : {2u, 4u, 12u}) {
        SCOPED_TRACE(ways);
        SetAssocTags tags(8, ways);
        EXPECT_EQ(tags.find(3, zero_fp), SetAssocTags::npos);
        tags.fill(3, tags.victim(3), zero_fp);
        EXPECT_EQ(tags.find(3, zero_fp), 3u * ways);
        EXPECT_EQ(tags.find(2, zero_fp), SetAssocTags::npos);
        EXPECT_EQ(tags.find(4, zero_fp), SetAssocTags::npos);
    }
}

TEST(SetAssocTags, InvalidatedWayIsRefilledFirst)
{
    SetAssocTags tags(1, 8);
    for (std::uint64_t k = 1; k <= 8; ++k)
        tags.fill(0, tags.victim(0), k);
    EXPECT_EQ(tags.victim(0), 0u); // key 1 is least recently used
    tags.invalidate(0, 5);
    tags.invalidate(0, 3);
    EXPECT_EQ(tags.find(0, 4), SetAssocTags::npos);
    EXPECT_EQ(tags.population(), 6u);
    EXPECT_EQ(tags.victim(0), 3u); // lowest invalid way
    tags.fill(0, 3, 40);
    EXPECT_EQ(tags.victim(0), 5u);
    tags.invalidateAll();
    EXPECT_EQ(tags.population(), 0u);
    EXPECT_EQ(tags.victim(0), 0u);
}

/**
 * Differential check of the victim rule against per-way last-use
 * stamps: victim = first invalid way, else the lowest stamp.
 */
TEST(SetAssocTags, VictimMatchesStampModelAtEveryWayCount)
{
    for (unsigned ways = 1; ways <= SetAssocTags::maxWays; ++ways) {
        SCOPED_TRACE(ways);
        constexpr std::size_t sets = 2;
        SetAssocTags tags(sets, ways);
        std::vector<std::uint64_t> key(sets * ways, 0);
        std::vector<std::uint64_t> stamp(sets * ways, 0);
        std::uint64_t clock = 0;
        Rng rng(ways);
        for (int step = 0; step < 4000; ++step) {
            const std::size_t set = rng.below(sets);
            const std::size_t base = set * ways;
            // Keys from a small universe, so hits and refills repeat.
            const std::uint64_t k = 1 + rng.below(ways * 2);
            std::size_t want = SetAssocTags::npos;
            for (std::size_t i = base; i < base + ways; ++i) {
                if (key[i] == k)
                    want = i;
            }
            ASSERT_EQ(tags.find(set, k), want) << step;
            const std::uint64_t op = rng.below(16);
            if (want != SetAssocTags::npos && op == 0) {
                tags.invalidate(set, want);
                key[want] = 0;
            } else if (want != SetAssocTags::npos) {
                tags.touch(set, want);
                stamp[want] = ++clock;
            } else {
                std::size_t victim = SetAssocTags::npos;
                for (std::size_t i = base; i < base + ways; ++i) {
                    if (key[i] == 0) {
                        victim = i;
                        break;
                    }
                }
                if (victim == SetAssocTags::npos) {
                    victim = base;
                    for (std::size_t i = base + 1; i < base + ways; ++i) {
                        if (stamp[i] < stamp[victim])
                            victim = i;
                    }
                }
                ASSERT_EQ(tags.victim(set), victim) << step;
                tags.fill(set, victim, k);
                key[victim] = k;
                stamp[victim] = ++clock;
            }
        }
    }
}

TEST(SetAssocTagsDeathTest, MoreThan64WaysPanics)
{
    EXPECT_DEATH(SetAssocTags(1, 65), "1 to 64 ways");
    EXPECT_DEATH(SetAssocTags(1, 0), "1 to 64 ways");
}

} // namespace

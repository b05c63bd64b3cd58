/**
 * @file
 * Unit tests for the access coalescer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hh"
#include "tlb/coalescer.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::tlb;
using gpuwalk::mem::Addr;

TEST(Coalescer, EmptyInput)
{
    const auto out = coalesce({});
    EXPECT_TRUE(out.pages.empty());
    EXPECT_TRUE(out.lines.empty());
    EXPECT_EQ(out.activeLanes, 0u);
    EXPECT_DOUBLE_EQ(out.pageDivergence(), 0.0);
}

TEST(Coalescer, PerfectlyCoalescedBroadcast)
{
    std::vector<Addr> lanes(64, 0x1234);
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 1u);
    EXPECT_EQ(out.lines.size(), 1u);
    EXPECT_EQ(out.pages[0], 0x1000u);
    EXPECT_EQ(out.lines[0], 0x1200u);
}

TEST(Coalescer, UnitStrideTouchesFewLines)
{
    // 64 lanes x 4-byte elements = 256 bytes = 4 lines, 1 page.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 64; ++i)
        lanes.push_back(0x10000 + i * 4);
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 1u);
    EXPECT_EQ(out.lines.size(), 4u);
}

TEST(Coalescer, PageStrideFullyDiverges)
{
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 64; ++i)
        lanes.push_back(0x100000 + i * 32768); // 32 KB row stride
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 64u);
    EXPECT_EQ(out.lines.size(), 64u);
    EXPECT_DOUBLE_EQ(out.pageDivergence(), 1.0);
}

TEST(Coalescer, SubPageStridePartiallyCoalesces)
{
    // 1 KB stride: 4 lanes per page.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 64; ++i)
        lanes.push_back(0x100000 + i * 1024);
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 16u);
    EXPECT_EQ(out.lines.size(), 64u);
}

TEST(Coalescer, PreservesFirstOccurrenceOrder)
{
    std::vector<Addr> lanes{0x3000, 0x1000, 0x3040, 0x2000};
    const auto out = coalesce(lanes);
    ASSERT_EQ(out.pages.size(), 3u);
    EXPECT_EQ(out.pages[0], 0x3000u);
    EXPECT_EQ(out.pages[1], 0x1000u);
    EXPECT_EQ(out.pages[2], 0x2000u);
}

TEST(Coalescer, LinesAndPagesIndependent)
{
    // Two lines on the same page.
    std::vector<Addr> lanes{0x5000, 0x5040};
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages.size(), 1u);
    EXPECT_EQ(out.lines.size(), 2u);
}

TEST(Coalescer, DivergenceMetricPartial)
{
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back(i * mem::pageSize);
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back(i * mem::pageSize); // duplicates
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.activeLanes, 64u);
    EXPECT_EQ(out.pages.size(), 32u);
    EXPECT_DOUBLE_EQ(out.pageDivergence(), 0.5);
}

/** First-appearance dedupe, the obvious quadratic way. */
std::vector<Addr>
firstAppearance(const std::vector<Addr> &addrs)
{
    std::vector<Addr> out;
    for (Addr a : addrs) {
        if (std::find(out.begin(), out.end(), a) == out.end())
            out.push_back(a);
    }
    return out;
}

TEST(Coalescer, SixtyFourLanesKeepFirstAppearanceOrder)
{
    // The order of pages and lines is the request order downstream
    // (and so part of every golden digest): it must be the order in
    // which lanes first touch them, whatever the repetition pattern.
    sim::Rng rng(64);
    for (int trial = 0; trial < 200; ++trial) {
        // Few pages (with page 0 among them) and lines, drawn with
        // heavy repetition and in descending-then-random order.
        std::vector<Addr> lanes;
        for (int lane = 0; lane < 64; ++lane) {
            const Addr page = (lane < 8 ? 7 - lane : rng.below(12))
                              * mem::pageSize;
            lanes.push_back(page + rng.below(8) * mem::cacheLineSize
                            + rng.below(mem::cacheLineSize));
        }
        std::vector<Addr> pages, lines;
        for (Addr a : lanes) {
            pages.push_back(mem::pageAlign(a));
            lines.push_back(mem::lineAlign(a));
        }

        const auto out = coalesce(lanes);
        EXPECT_EQ(out.activeLanes, 64u);
        EXPECT_EQ(out.pages, firstAppearance(pages)) << trial;
        EXPECT_EQ(out.lines, firstAppearance(lines)) << trial;
        EXPECT_EQ(out.pages.front(), 7 * mem::pageSize);
    }
}

TEST(Coalescer, LaneVectorsWiderThanAWavefrontStillDedupe)
{
    // Beyond the stack-sized table: 1000 lanes over 300 pages.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 1000; ++i)
        lanes.push_back(((i * 7) % 300) * mem::pageSize + (i % 64) * 64);
    std::vector<Addr> pages;
    for (Addr a : lanes)
        pages.push_back(mem::pageAlign(a));
    const auto out = coalesce(lanes);
    EXPECT_EQ(out.pages, firstAppearance(pages));
    EXPECT_EQ(out.pages.size(), 300u);
}

} // namespace

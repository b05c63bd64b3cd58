/**
 * @file
 * Unit tests for the workload pattern building blocks.
 */

#include <gtest/gtest.h>

#include "tlb/coalescer.hh"
#include "workload/patterns.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::workload;
using gpuwalk::mem::Addr;

TEST(Patterns, StridedLanesArithmetic)
{
    const auto lanes = stridedLanes(0x1000, 32768, 4);
    ASSERT_EQ(lanes.size(), 4u);
    EXPECT_EQ(lanes[0], 0x1000u);
    EXPECT_EQ(lanes[3], 0x1000u + 3u * 32768u);
}

TEST(Patterns, SequentialLanesAreUnitStride)
{
    const auto lanes = sequentialLanes(0x2000, 4);
    ASSERT_EQ(lanes.size(), gpu::wavefrontSize);
    EXPECT_EQ(lanes[1] - lanes[0], 4u);
    // Coalesces to a single page.
    EXPECT_EQ(tlb::coalesce(lanes).pages.size(), 1u);
}

TEST(Patterns, BroadcastIsOneAddress)
{
    const auto lanes = broadcastLanes(0xabc0);
    EXPECT_EQ(lanes.size(), gpu::wavefrontSize);
    for (auto a : lanes)
        EXPECT_EQ(a, 0xabc0u);
}

TEST(Patterns, RandomLanesStayInRegion)
{
    sim::Rng rng(3);
    vm::VaRegion region{"r", 0x100000, 0x40000};
    for (int i = 0; i < 50; ++i) {
        for (auto a : randomLanes(rng, region, 8)) {
            EXPECT_GE(a, region.base);
            EXPECT_LT(a, region.end());
            EXPECT_EQ(a % 8, 0u);
        }
    }
}

TEST(Patterns, WindowedRandomRespectsWindow)
{
    sim::Rng rng(5);
    vm::VaRegion region{"r", 0, 1 << 20}; // 128K x 8B elements
    const std::uint64_t focus = 5000, window = 200;
    for (int i = 0; i < 50; ++i) {
        for (auto a : windowedRandomLanes(rng, region, 8, focus,
                                          window)) {
            const std::uint64_t elem = a / 8;
            EXPECT_GE(elem, focus - window / 2);
            EXPECT_LE(elem, focus + window / 2);
        }
    }
}

TEST(Patterns, WindowedRandomClampsAtRegionEdges)
{
    sim::Rng rng(7);
    vm::VaRegion region{"r", 0, 4096};
    // Focus beyond the region: must clamp, not overflow.
    for (auto a : windowedRandomLanes(rng, region, 8, 1 << 20, 100))
        EXPECT_LT(a, region.end());
    // Focus at zero: no underflow.
    for (auto a : windowedRandomLanes(rng, region, 8, 0, 100))
        EXPECT_GE(a, region.base);
}

TEST(Patterns, JitteredComputeStaysInBand)
{
    sim::Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const auto c = jitteredCompute(rng, 200);
        EXPECT_GE(c, 100u);
        EXPECT_LT(c, 300u);
    }
    // Degenerate base passes through.
    EXPECT_EQ(jitteredCompute(rng, 0), 0u);
    EXPECT_EQ(jitteredCompute(rng, 1), 1u);
}

TEST(Patterns, ActiveLaneCountDistribution)
{
    sim::Rng rng(13);
    unsigned full = 0, partial = 0;
    for (int i = 0; i < 10000; ++i) {
        const auto lanes = activeLaneCount(rng, 0.2);
        EXPECT_GE(lanes, gpu::wavefrontSize / 8);
        EXPECT_LE(lanes, gpu::wavefrontSize);
        if (lanes == gpu::wavefrontSize)
            ++full;
        else
            ++partial;
    }
    EXPECT_NEAR(partial / 10000.0, 0.2, 0.02);
    EXPECT_GT(full, 0u);
}

TEST(Patterns, ActiveLaneCountZeroProbabilityAlwaysFull)
{
    sim::Rng rng(17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(activeLaneCount(rng, 0.0), gpu::wavefrontSize);
}

TEST(Patterns, MakeInstrWiresFields)
{
    auto instr = makeInstr({0x10, 0x20}, false, 99);
    EXPECT_EQ(instr.laneAddrs.size(), 2u);
    EXPECT_FALSE(instr.isLoad);
    EXPECT_EQ(instr.computeCycles, 99u);
    // The compute gap is capped, so gaps in ticks cannot wrap.
    instr = makeInstr({0x10}, true, gpu::maxComputeCycles + 1);
    EXPECT_EQ(instr.computeCycles, gpu::maxComputeCycles);
}

TEST(Patterns, SquareDimMatchesFootprint)
{
    // 128 MB of doubles -> n = 4096.
    EXPECT_EQ(squareDim(Addr(128) << 20, 8), 4096u);
    // Floors at wavefront size for tiny footprints.
    EXPECT_EQ(squareDim(1024, 8), gpu::wavefrontSize);
}

} // namespace

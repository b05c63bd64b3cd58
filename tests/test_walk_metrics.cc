/**
 * @file
 * Unit tests for the per-instruction walk instrumentation that feeds
 * the paper's Figures 3, 5, 6, 10 and 11.
 */

#include <gtest/gtest.h>

#include "iommu/walk_metrics.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::iommu;

TEST(WalkMetrics, EmptySummary)
{
    WalkMetrics m;
    const auto s = m.summarize();
    EXPECT_EQ(s.instructionsWithWalks, 0u);
    EXPECT_EQ(s.totalWalks, 0u);
    EXPECT_DOUBLE_EQ(s.interleavedFraction, 0.0);
}

TEST(WalkMetrics, SingleWalkInstructionIsNotMultiWalk)
{
    WalkMetrics m;
    m.onDispatch(1);
    m.onComplete(1, 100, 500, 2);
    const auto s = m.summarize();
    EXPECT_EQ(s.instructionsWithWalks, 1u);
    EXPECT_EQ(s.multiWalkInstructions, 0u);
    EXPECT_EQ(s.totalWalks, 1u);
    EXPECT_EQ(s.totalMemAccesses, 2u);
}

TEST(WalkMetrics, ContiguousDispatchIsNotInterleaved)
{
    WalkMetrics m;
    for (int i = 0; i < 3; ++i)
        m.onDispatch(1);
    for (int i = 0; i < 3; ++i)
        m.onComplete(1, 0, 100 + i, 1);
    const auto s = m.summarize();
    EXPECT_EQ(s.multiWalkInstructions, 1u);
    EXPECT_EQ(s.interleavedInstructions, 0u);
}

TEST(WalkMetrics, ForeignDispatchBetweenSiblingsIsInterleaved)
{
    WalkMetrics m;
    m.onDispatch(1);
    m.onDispatch(2); // interleaves instruction 1
    m.onDispatch(1);
    m.onComplete(1, 0, 10, 1);
    m.onComplete(1, 0, 20, 1);
    m.onComplete(2, 0, 15, 1);
    const auto s = m.summarize();
    EXPECT_EQ(s.multiWalkInstructions, 1u);
    EXPECT_EQ(s.interleavedInstructions, 1u);
    EXPECT_DOUBLE_EQ(s.interleavedFraction, 1.0);
}

TEST(WalkMetrics, FirstAndLastCompletionLatencies)
{
    WalkMetrics m;
    m.onDispatch(1);
    m.onDispatch(1);
    // First completes at 150 (latency 50), last at 400 (latency 300).
    m.onComplete(1, 100, 150, 1);
    m.onComplete(1, 100, 400, 1);
    const auto s = m.summarize();
    EXPECT_DOUBLE_EQ(s.avgFirstCompletedLatency, 50.0);
    EXPECT_DOUBLE_EQ(s.avgLastCompletedLatency, 300.0);
    EXPECT_DOUBLE_EQ(s.avgLatencyGap, 250.0);
}

TEST(WalkMetrics, CompletionOrderIndependent)
{
    WalkMetrics m;
    m.onDispatch(1);
    m.onDispatch(1);
    // Report the later completion first.
    m.onComplete(1, 0, 400, 1);
    m.onComplete(1, 0, 150, 1);
    const auto s = m.summarize();
    EXPECT_DOUBLE_EQ(s.avgFirstCompletedLatency, 150.0);
    EXPECT_DOUBLE_EQ(s.avgLastCompletedLatency, 400.0);
}

TEST(WalkMetrics, WorkBucketsFollowFig3Bounds)
{
    WalkMetrics m;
    // Instruction 1: 10 accesses -> bucket 0 (1-16).
    m.onDispatch(1);
    m.onComplete(1, 0, 1, 10);
    // Instruction 2: 2 walks x 32 accesses = 64 -> bucket 3 (49-64).
    m.onDispatch(2);
    m.onDispatch(2);
    m.onComplete(2, 0, 1, 4);
    m.onComplete(2, 0, 2, 60);
    // Instruction 3: 100 accesses -> bucket 5 (81-256).
    m.onDispatch(3);
    m.onComplete(3, 0, 1, 100);

    const auto s = m.summarize();
    ASSERT_EQ(s.workBucketCounts.size(), 7u);
    EXPECT_EQ(s.workBucketCounts[0], 1u);
    EXPECT_EQ(s.workBucketCounts[3], 1u);
    EXPECT_EQ(s.workBucketCounts[5], 1u);
    EXPECT_NEAR(s.workBucketFractions[0], 1.0 / 3.0, 1e-12);
}

TEST(WalkMetrics, FractionsAverageOverMultiWalkOnly)
{
    WalkMetrics m;
    // One single-walk instruction and one multi-walk instruction.
    m.onDispatch(1);
    m.onComplete(1, 0, 5, 1);
    m.onDispatch(2);
    m.onDispatch(2);
    m.onComplete(2, 0, 10, 1);
    m.onComplete(2, 0, 30, 1);
    const auto s = m.summarize();
    EXPECT_EQ(s.instructionsWithWalks, 2u);
    EXPECT_EQ(s.multiWalkInstructions, 1u);
    EXPECT_DOUBLE_EQ(s.avgLatencyGap, 20.0);
}

} // namespace

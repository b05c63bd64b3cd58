/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "sim/stats.hh"

namespace {

using namespace gpuwalk::sim;

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter c("events", "test counter");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
}

TEST(Average, TracksMeanMinMax)
{
    Average a("lat", "latency");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(10.0);
    a.sample(30.0);
    a.sample(20.0);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_DOUBLE_EQ(a.minValue(), 10.0);
    EXPECT_DOUBLE_EQ(a.maxValue(), 30.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Histogram, BucketsMatchPaperFig3Layout)
{
    // The Fig. 3 buckets: 1-16, 17-32, 33-48, 49-64, 65-80, 81-256, +.
    Histogram h("work", "walk work", {16, 32, 48, 64, 80, 256});
    EXPECT_EQ(h.buckets(), 7u);
    h.sample(1);
    h.sample(16);
    h.sample(17);
    h.sample(64);
    h.sample(65);
    h.sample(256);
    h.sample(257);
    EXPECT_EQ(h.bucketCount(0), 2u); // 1, 16
    EXPECT_EQ(h.bucketCount(1), 1u); // 17
    EXPECT_EQ(h.bucketCount(3), 1u); // 64
    EXPECT_EQ(h.bucketCount(4), 1u); // 65
    EXPECT_EQ(h.bucketCount(5), 1u); // 256
    EXPECT_EQ(h.bucketCount(6), 1u); // 257 overflow
    EXPECT_EQ(h.total(), 7u);
    EXPECT_NEAR(h.fraction(0), 2.0 / 7.0, 1e-12);
}

TEST(Histogram, LabelsDescribeRanges)
{
    Histogram h("h", "d", {16, 32});
    EXPECT_EQ(h.bucketLabel(0), "0-16");
    EXPECT_EQ(h.bucketLabel(1), "17-32");
    EXPECT_EQ(h.bucketLabel(2), "33+");
}

TEST(Histogram, WeightedSamples)
{
    Histogram h("h", "d", {10});
    h.sample(5, 7);
    EXPECT_EQ(h.bucketCount(0), 7u);
    EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, MeanIsExactOverWeightedSamples)
{
    Histogram h("lat", "d", {16});
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.sample(10);
    h.sample(40, 3); // the overflow bucket still adds to the sum
    EXPECT_DOUBLE_EQ(h.mean(), 130.0 / 4.0);

    // The sum is an integer: a 2^53 + 1 sample that a double would
    // round stays exact.
    Histogram big("big", "d", {16});
    big.sample((std::uint64_t{1} << 53) + 1);
    big.sample(1);
    EXPECT_DOUBLE_EQ(big.mean(), static_cast<double>(
                                     (std::uint64_t{1} << 52) + 1));
}

TEST(Histogram, DumpEndsWithTheMean)
{
    Histogram h("lat", "latency", {16});
    h.sample(3);
    h.sample(20);
    std::ostringstream os;
    h.dump(os, "g.");
    EXPECT_EQ(os.str(), "g.lat::total 2 # latency\n"
                        "g.lat::0-16 1 # 50%\n"
                        "g.lat::17+ 1 # 50%\n"
                        "g.lat::mean 11.5 # mean sample\n");
}

TEST(Histogram, DumpLeavesTheStreamPrecisionAlone)
{
    // Bucket shares print at 4 digits; the mean and whatever the
    // caller prints next keep the caller's precision.
    Histogram h("lat", "latency", {16});
    h.sample(1);
    h.sample(1);
    h.sample(20);
    std::ostringstream os;
    os.precision(9);
    h.dump(os, "g.");
    EXPECT_EQ(os.precision(), 9);
    EXPECT_NE(os.str().find("g.lat::0-16 2 # 66.67%\n"), std::string::npos);
    EXPECT_NE(os.str().find("g.lat::mean 7.33333333 #"), std::string::npos);
}

TEST(StatGroup, DumpsHierarchicalNames)
{
    StatGroup root("sys");
    StatGroup child("dram");
    Counter c("reads", "read count");
    c += 3;
    child.add(c);
    root.addChild(child);

    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("sys.dram.reads 3"), std::string::npos);
}

} // namespace

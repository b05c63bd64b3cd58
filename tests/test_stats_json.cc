/**
 * @file
 * Unit tests for the JSON statistics export.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace {

using namespace gpuwalk::sim;

TEST(StatsJson, CounterValues)
{
    StatGroup g("top");
    Counter c("reads", "d");
    c += 42;
    Counter w("writes", "d");
    g.add(c);
    g.add(w);
    std::ostringstream os;
    g.dumpJson(os);
    EXPECT_EQ(os.str(), "{\"reads\": 42, \"writes\": 0}");
}

TEST(StatsJson, AverageObject)
{
    StatGroup g("top");
    Average a("lat", "d");
    a.sample(10);
    a.sample(20);
    g.add(a);
    std::ostringstream os;
    g.dumpJson(os);
    EXPECT_EQ(os.str(), "{\"lat\": {\"mean\": 15, \"count\": 2, "
                        "\"min\": 10, \"max\": 20}}");
}

TEST(StatsJson, EmptyAverageOmitsMinMax)
{
    StatGroup g("top");
    Average a("lat", "d");
    g.add(a);
    std::ostringstream os;
    g.dumpJson(os);
    EXPECT_EQ(os.str(), "{\"lat\": {\"mean\": 0, \"count\": 0}}");
}

TEST(StatsJson, HistogramBuckets)
{
    StatGroup g("top");
    Histogram h("work", "d", {16, 32});
    h.sample(5);
    h.sample(40);
    g.add(h);
    std::ostringstream os;
    g.dumpJson(os);
    EXPECT_EQ(os.str(),
              "{\"work\": {\"total\": 2, \"mean\": 22.5, \"buckets\": "
              "{\"0-16\": 1, \"17-32\": 0, \"33+\": 1}}}");
}

TEST(StatsJson, NestedGroups)
{
    StatGroup root("sys");
    StatGroup child("dram");
    Counter c("reads", "d");
    c += 7;
    child.add(c);
    root.addChild(child);
    std::ostringstream os;
    root.dumpJson(os);
    EXPECT_EQ(os.str(), "{\"dram\": {\"reads\": 7}}");
}

TEST(StatsJson, EmptyGroup)
{
    StatGroup g("empty");
    std::ostringstream os;
    g.dumpJson(os);
    EXPECT_EQ(os.str(), "{}");
}

} // namespace

/**
 * @file
 * Unit tests for the Table II workload generators.
 */

#include <gtest/gtest.h>

#include <set>

#include "tlb/coalescer.hh"
#include "workload/registry.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::workload;
using gpuwalk::mem::Addr;

WorkloadParams
testParams()
{
    WorkloadParams p;
    p.wavefronts = 8;
    p.instructionsPerWavefront = 24;
    p.footprintScale = 0.02;
    p.seed = 5;
    return p;
}

struct Harness
{
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(16) << 30};
    vm::AddressSpace as{store, frames};
};

TEST(WorkloadRegistry, AllTwelveBenchmarksExist)
{
    const auto names = allWorkloadNames();
    ASSERT_EQ(names.size(), 12u);
    for (const auto &n : names) {
        auto gen = makeWorkload(n);
        ASSERT_NE(gen, nullptr);
        EXPECT_EQ(gen->info().abbrev, n);
        EXPECT_GT(gen->info().footprintMB, 0.0);
    }
}

TEST(WorkloadRegistry, IrregularAndRegularPartition)
{
    const auto irregular = irregularWorkloadNames();
    const auto regular = regularWorkloadNames();
    EXPECT_EQ(irregular.size(), 6u);
    EXPECT_EQ(regular.size(), 6u);
    for (const auto &n : irregular)
        EXPECT_TRUE(makeWorkload(n)->info().irregular) << n;
    for (const auto &n : regular)
        EXPECT_FALSE(makeWorkload(n)->info().irregular) << n;
}

TEST(WorkloadRegistry, MotivationSetMatchesPaperFigures)
{
    EXPECT_EQ(motivationWorkloadNames(),
              (std::vector<std::string>{"MVT", "ATX", "BIC", "GEV"}));
}

TEST(WorkloadRegistry, Table2FootprintsMatchPaper)
{
    EXPECT_NEAR(makeWorkload("XSB")->info().footprintMB, 212.25, 0.01);
    EXPECT_NEAR(makeWorkload("MVT")->info().footprintMB, 128.14, 0.01);
    EXPECT_NEAR(makeWorkload("ATX")->info().footprintMB, 64.06, 0.01);
    EXPECT_NEAR(makeWorkload("NW")->info().footprintMB, 531.82, 0.01);
    EXPECT_NEAR(makeWorkload("BIC")->info().footprintMB, 128.11, 0.01);
    EXPECT_NEAR(makeWorkload("GEV")->info().footprintMB, 128.06, 0.01);
    EXPECT_NEAR(makeWorkload("SSP")->info().footprintMB, 104.32, 0.01);
    EXPECT_NEAR(makeWorkload("MIS")->info().footprintMB, 72.38, 0.01);
    EXPECT_NEAR(makeWorkload("CLR")->info().footprintMB, 26.68, 0.01);
    EXPECT_NEAR(makeWorkload("BCK")->info().footprintMB, 108.03, 0.01);
    EXPECT_NEAR(makeWorkload("KMN")->info().footprintMB, 4.33, 0.01);
    EXPECT_NEAR(makeWorkload("HOT")->info().footprintMB, 12.02, 0.01);
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeWorkload("NOPE"), ::testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(Workloads, EveryGeneratorProducesRequestedShape)
{
    for (const auto &name : allWorkloadNames()) {
        Harness h;
        const auto params = testParams();
        auto wl = makeWorkload(name)->generate(h.as, params);
        EXPECT_EQ(wl.wavefronts(), params.wavefronts) << name;
        for (const auto &trace : wl.traces) {
            EXPECT_EQ(trace.size(), params.instructionsPerWavefront)
                << name;
        }
    }
}

TEST(Workloads, EveryLaneAddressIsMapped)
{
    for (const auto &name : allWorkloadNames()) {
        Harness h;
        auto wl = makeWorkload(name)->generate(h.as, testParams());
        for (const auto &trace : wl.traces) {
            for (const auto &instr : trace) {
                for (Addr a : instr.laneAddrs) {
                    ASSERT_TRUE(
                        h.as.pageTable().translate(a).has_value())
                        << name << " unmapped address " << a;
                }
            }
        }
    }
}

TEST(Workloads, GenerationIsDeterministic)
{
    for (const auto &name : {"XSB", "MVT", "SSP"}) {
        Harness h1, h2;
        auto a = makeWorkload(name)->generate(h1.as, testParams());
        auto b = makeWorkload(name)->generate(h2.as, testParams());
        ASSERT_EQ(a.traces.size(), b.traces.size());
        for (std::size_t i = 0; i < a.traces.size(); ++i) {
            ASSERT_EQ(a.traces[i].size(), b.traces[i].size());
            for (std::size_t k = 0; k < a.traces[i].size(); ++k) {
                EXPECT_EQ(a.traces[i][k].laneAddrs,
                          b.traces[i][k].laneAddrs)
                    << name << " wf " << i << " instr " << k;
            }
        }
    }
}

/** Average unique pages per instruction across a workload. */
double
avgDivergence(const gpu::GpuWorkload &wl)
{
    double pages = 0;
    std::size_t instrs = 0;
    for (const auto &trace : wl.traces) {
        for (const auto &instr : trace) {
            pages += static_cast<double>(
                tlb::coalesce(instr.laneAddrs).pages.size());
            ++instrs;
        }
    }
    return instrs ? pages / static_cast<double>(instrs) : 0.0;
}

TEST(Workloads, IrregularAppsDivergeRegularAppsCoalesce)
{
    // Use a larger footprint scale so matrix strides exceed a page.
    auto params = testParams();
    params.footprintScale = 0.25;
    for (const auto &name : irregularWorkloadNames()) {
        Harness h;
        auto wl = makeWorkload(name)->generate(h.as, params);
        EXPECT_GT(avgDivergence(wl), 8.0) << name;
    }
    for (const auto &name : regularWorkloadNames()) {
        Harness h;
        auto wl = makeWorkload(name)->generate(h.as, params);
        EXPECT_LT(avgDivergence(wl), 4.0) << name;
    }
}

TEST(Workloads, ComputeScaleStretchesComputeCycles)
{
    Harness h1, h2;
    auto params = testParams();
    auto base = makeWorkload("MVT")->generate(h1.as, params);
    params.computeCycles *= 10;
    auto scaled = makeWorkload("MVT")->generate(h2.as, params);

    auto total = [](const gpu::GpuWorkload &wl) {
        std::uint64_t sum = 0;
        for (const auto &t : wl.traces)
            for (const auto &i : t)
                sum += i.computeCycles;
        return sum;
    };
    EXPECT_GT(total(scaled), 5 * total(base));
}

TEST(Workloads, FootprintScaleShrinksAllocation)
{
    Harness h1, h2;
    auto small = testParams();
    auto big = testParams();
    big.footprintScale = 0.2;
    makeWorkload("MVT")->generate(h1.as, small);
    makeWorkload("MVT")->generate(h2.as, big);
    EXPECT_LT(h1.as.footprintBytes(), h2.as.footprintBytes());
}

TEST(Workloads, XsbenchProbesSharpenWithDepth)
{
    // Early binary-search probes are heavily shared across lanes;
    // the final gather is fully divergent.
    Harness h;
    auto params = testParams();
    params.footprintScale = 0.5;
    auto wl = makeWorkload("XSB")->generate(h.as, params);
    const auto &trace = wl.traces.front();
    const auto first = tlb::coalesce(trace[0].laneAddrs);
    EXPECT_LE(first.pages.size(), 3u);
}

} // namespace

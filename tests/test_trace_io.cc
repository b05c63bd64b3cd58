/**
 * @file
 * Unit tests for workload trace serialization and summarization.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "vm/address_space.hh"
#include "workload/registry.hh"
#include "workload/trace_io.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::workload;
using gpuwalk::mem::Addr;

gpu::GpuWorkload
sampleWorkload()
{
    gpu::GpuWorkload wl;
    gpu::WavefrontTrace t0;
    gpu::SimdMemInstruction load;
    load.laneAddrs = {0x1000, 0x2000, 0xdeadbeef000};
    load.isLoad = true;
    load.computeCycles = 17;
    t0.push_back(load);
    gpu::SimdMemInstruction store;
    store.laneAddrs = {0x5000};
    store.isLoad = false;
    store.computeCycles = 3;
    t0.push_back(store);
    wl.traces.push_back(std::move(t0));
    wl.traces.push_back({}); // empty wavefront is legal
    return wl;
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    const auto original = sampleWorkload();
    std::stringstream ss;
    saveTrace(ss, original);
    const auto loaded = loadTrace(ss);

    ASSERT_EQ(loaded.traces.size(), original.traces.size());
    for (std::size_t wf = 0; wf < original.traces.size(); ++wf) {
        ASSERT_EQ(loaded.traces[wf].size(), original.traces[wf].size());
        for (std::size_t k = 0; k < original.traces[wf].size(); ++k) {
            const auto &a = original.traces[wf][k];
            const auto &b = loaded.traces[wf][k];
            EXPECT_EQ(a.laneAddrs, b.laneAddrs);
            EXPECT_EQ(a.isLoad, b.isLoad);
            EXPECT_EQ(a.computeCycles, b.computeCycles);
        }
    }
}

TEST(TraceIo, GeneratedBenchmarkRoundTrips)
{
    // At the --compute-cycles bound, jitter draws gaps above the
    // loader's bound; the generator caps them, so the trace reloads.
    for (const sim::Cycles compute :
         {sim::Cycles{20}, gpu::maxComputeCycles}) {
        mem::BackingStore store;
        vm::FrameAllocator frames{Addr(16) << 30};
        vm::AddressSpace as(store, frames);
        WorkloadParams params;
        params.wavefronts = 6;
        params.instructionsPerWavefront = 8;
        params.footprintScale = 0.02;
        params.computeCycles = compute;
        const auto original = makeWorkload("ATX")->generate(as, params);

        std::stringstream ss;
        saveTrace(ss, original);
        const auto loaded = loadTrace(ss);
        ASSERT_EQ(loaded.traces.size(), original.traces.size());
        for (std::size_t wf = 0; wf < original.traces.size(); ++wf) {
            for (std::size_t k = 0; k < original.traces[wf].size(); ++k) {
                EXPECT_EQ(loaded.traces[wf][k].laneAddrs,
                          original.traces[wf][k].laneAddrs);
                EXPECT_EQ(loaded.traces[wf][k].computeCycles,
                          original.traces[wf][k].computeCycles);
            }
        }
    }
}

TEST(TraceIo, FormatIsStable)
{
    std::stringstream ss;
    saveTrace(ss, sampleWorkload());
    const std::string text = ss.str();
    EXPECT_NE(text.find("gpuwalk-trace v1"), std::string::npos);
    EXPECT_NE(text.find("wavefronts 2"), std::string::npos);
    EXPECT_NE(text.find("L 17 3 1000 2000 deadbeef000"),
              std::string::npos);
    EXPECT_NE(text.find("S 3 1 5000"), std::string::npos);
}

TEST(TraceIoDeathTest, RejectsBadMagic)
{
    std::stringstream ss("not-a-trace\n");
    EXPECT_EXIT(loadTrace(ss), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(TraceIoDeathTest, RejectsTruncation)
{
    std::stringstream good;
    saveTrace(good, sampleWorkload());
    const std::string text = good.str();
    std::stringstream truncated(text.substr(0, text.size() / 2));
    EXPECT_EXIT(loadTrace(truncated), ::testing::ExitedWithCode(1),
                "trace:");
}

TEST(TraceIoDeathTest, RejectsOversizedLaneCount)
{
    std::stringstream ss("gpuwalk-trace v1\n"
                         "wavefronts 1\n"
                         "wavefront 0 instructions 1\n"
                         "L 5 9999 0\n");
    EXPECT_EXIT(loadTrace(ss), ::testing::ExitedWithCode(1),
                "lane count");
}

/** A one-instruction trace whose record is @p record. */
std::string
oneInstruction(const std::string &record)
{
    return "gpuwalk-trace v1\n"
           "wavefronts 1\n"
           "wavefront 0 instructions 1\n"
           + record + "\n";
}

TEST(TraceIoDeathTest, RejectsComputeCyclesThatWrapTheTick)
{
    std::stringstream ss(oneInstruction("L 18446744073709551615 1 1000"));
    EXPECT_EXIT(loadTrace(ss), ::testing::ExitedWithCode(1),
                "compute cycles 18446744073709551615 exceed "
                "4294967295 \\(wf 0 instr 0\\)");
}

TEST(TraceIoDeathTest, RejectsLaneAddressAboveTheContextBits)
{
    // 2^48 + 4 KB: its page would collide with the context ID the TLB
    // keys pack into the top 16 bits.
    std::stringstream ss(oneInstruction("L 5 1 1000000001000"));
    EXPECT_EXIT(loadTrace(ss), ::testing::ExitedWithCode(1),
                "lane address 0x1000000001000 is not below 2\\^48 "
                "\\(wf 0 instr 0\\)");
}

TEST(TraceIoDeathTest, RejectsLaneAddressWiderThanAVpn)
{
    std::stringstream ss(oneInstruction("S 5 2 1000 ffffffffffff000"));
    EXPECT_EXIT(loadTrace(ss), ::testing::ExitedWithCode(1),
                "lane address 0xffffffffffff000 is not below 2\\^48 "
                "\\(wf 0 instr 0\\)");
}

TEST(TraceIoDeathTest, RejectsHugeWavefrontCountWithoutAllocating)
{
    // The count alone must not be trusted for a reservation: the
    // loader fails on the first missing wavefront header instead of
    // asking for ~10^14 traces up front.
    std::stringstream ss("gpuwalk-trace v1\n"
                         "wavefronts 99999999999999\n");
    EXPECT_EXIT(loadTrace(ss), ::testing::ExitedWithCode(1),
                "bad wavefront header \\(wf 0\\)");
}

TEST(TraceIo, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/trace_test.gwt";
    saveTraceFile(path, sampleWorkload());
    const auto loaded = loadTraceFile(path);
    EXPECT_EQ(loaded.traces.size(), 2u);
    EXPECT_EQ(loaded.totalInstructions(), 2u);
}

TEST(TraceSummaryTest, CountsAndAverages)
{
    const auto s = summarizeTrace(sampleWorkload());
    EXPECT_EQ(s.wavefronts, 2u);
    EXPECT_EQ(s.instructions, 2u);
    EXPECT_EQ(s.loads, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_DOUBLE_EQ(s.avgActiveLanes, 2.0);       // (3 + 1) / 2
    EXPECT_DOUBLE_EQ(s.avgUniquePages, 2.0);       // (3 + 1) / 2
    EXPECT_EQ(s.totalComputeCycles, 20u);
}

TEST(TraceSummaryTest, EmptyWorkload)
{
    const auto s = summarizeTrace({});
    EXPECT_EQ(s.instructions, 0u);
    EXPECT_DOUBLE_EQ(s.avgUniquePages, 0.0);
}

} // namespace

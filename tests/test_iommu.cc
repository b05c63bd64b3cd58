/**
 * @file
 * Unit tests for the IOMMU: TLBs, walk buffer, walker pool, overflow
 * handling, and scheduler integration.
 */

#include <gtest/gtest.h>

#include "iommu/iommu.hh"
#include "mem/dram_controller.hh"
#include "request_sinks.hh"
#include "vm/address_space.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::iommu;
using gpuwalk::mem::Addr;

struct IommuFixture : public ::testing::Test
{
    sim::EventQueue eq;
    tlb::TranslationTable translations;
    mem::MemoryTable requests;
    test::TranslationCallbacks owner{translations};
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(1) << 30};
    std::unique_ptr<vm::AddressSpace> as;
    std::unique_ptr<mem::DramController> dram;
    std::unique_ptr<Iommu> iommu;
    vm::VaRegion region;

    void
    build(core::SchedulerKind kind, IommuConfig cfg = {})
    {
        as = std::make_unique<vm::AddressSpace>(store, frames);
        region = as->allocate("data", 4 * 1024 * 1024);
        dram = std::make_unique<mem::DramController>(
            eq, mem::DramConfig{}, requests);
        iommu = std::make_unique<Iommu>(
            eq, cfg, core::makeScheduler(kind, 1), translations, requests,
            *dram, store, as->pageTable().root());
    }

    /** Issues a translation; does not run the queue. */
    void
    issue(Addr va_page, tlb::InstructionId instr, Addr *out = nullptr)
    {
        tlb::TranslationRequest req;
        req.vaPage = va_page;
        req.instruction = instr;
        iommu->translate(owner.issue(req, [out](Addr pa, bool) {
            if (out)
                *out = pa;
        }));
    }
};

TEST_F(IommuFixture, WalkProducesCorrectTranslation)
{
    build(core::SchedulerKind::Fcfs);
    Addr pa = 0;
    issue(region.base, 1, &pa);
    eq.run();
    EXPECT_EQ(pa, *as->pageTable().translate(region.base));
    EXPECT_EQ(iommu->walkRequests(), 1u);
    EXPECT_EQ(iommu->walksCompleted(), 1u);
    EXPECT_EQ(iommu->inflightWalks(), 0u);
}

TEST_F(IommuFixture, SecondRequestHitsIommuTlb)
{
    build(core::SchedulerKind::Fcfs);
    issue(region.base, 1);
    eq.run();
    Addr pa = 0;
    issue(region.base, 2, &pa);
    eq.run();
    EXPECT_EQ(pa, *as->pageTable().translate(region.base));
    EXPECT_EQ(iommu->walkRequests(), 1u); // no second walk
}

TEST_F(IommuFixture, ManyRequestsAllTranslateCorrectly)
{
    build(core::SchedulerKind::SimtAware);
    std::vector<Addr> results(64, 0);
    for (Addr i = 0; i < 64; ++i)
        issue(region.base + i * mem::pageSize, i / 8, &results[i]);
    eq.run();
    for (Addr i = 0; i < 64; ++i) {
        EXPECT_EQ(results[i], *as->pageTable().translate(
                                  region.base + i * mem::pageSize));
    }
    EXPECT_EQ(iommu->walksCompleted(), 64u);
}

TEST_F(IommuFixture, WalkersRunConcurrently)
{
    IommuConfig cfg;
    cfg.numWalkers = 8;
    build(core::SchedulerKind::Fcfs, cfg);
    // 8 requests together should finish much faster than 8x one walk.
    sim::Tick single_done = 0;
    issue(region.base, 1);
    const sim::Tick t0 = eq.now();
    eq.run();
    single_done = eq.now() - t0;

    as = nullptr;
    build(core::SchedulerKind::Fcfs, cfg); // fresh state
    unsigned done = 0;
    for (Addr i = 0; i < 8; ++i)
        issue(region.base + i * mem::pageSize, i);
    const sim::Tick t1 = eq.now();
    eq.run();
    done = static_cast<unsigned>(eq.now() - t1);
    EXPECT_LT(done, 4 * single_done);
}

TEST_F(IommuFixture, BufferOverflowStillServicesEverything)
{
    IommuConfig cfg;
    cfg.bufferEntries = 4;
    cfg.numWalkers = 1;
    build(core::SchedulerKind::SimtAware, cfg);
    unsigned completed = 0;
    for (Addr i = 0; i < 64; ++i) {
        tlb::TranslationRequest req;
        req.vaPage = region.base + i * mem::pageSize;
        req.instruction = i / 4;
        iommu->translate(owner.issue(req, [&](Addr, bool) { ++completed; }));
    }
    eq.run();
    EXPECT_EQ(completed, 64u);
    EXPECT_EQ(iommu->inflightWalks(), 0u);
    // With 1 walker and a 4-entry buffer, most requests overflowed.
    EXPECT_GT(iommu->stats().name().size(), 0u); // smoke
}

TEST_F(IommuFixture, ScoresAccumulatePerInstruction)
{
    IommuConfig cfg;
    cfg.numWalkers = 1;
    build(core::SchedulerKind::SimtAware, cfg);
    // First request occupies the walker; the rest queue up and are
    // scored on arrival.
    for (Addr i = 0; i < 5; ++i)
        issue(region.base + i * mem::pageSize, /*instr=*/7);
    // Run just past the hop+TLB latency so requests are buffered.
    eq.run(eq.now() + cfg.hopLatency + cfg.tlbLatency
           + 10 * cfg.frontPortPeriod);
    // All buffered siblings share one accumulated score.
    // (The first request went straight to the walker.)
    // We can't inspect the buffer directly, but completion implies the
    // scoring path executed; the dedicated scheduler tests cover the
    // arithmetic. Here we only require it doesn't disturb correctness.
    eq.run();
    EXPECT_EQ(iommu->walksCompleted(), 5u);
}

TEST_F(IommuFixture, MetricsSeeArrivalsDispatchesCompletions)
{
    build(core::SchedulerKind::Fcfs);
    for (Addr i = 0; i < 6; ++i)
        issue(region.base + i * mem::pageSize, /*instr=*/3);
    eq.run();
    const auto s = iommu->metrics().summarize();
    EXPECT_EQ(s.instructionsWithWalks, 1u);
    EXPECT_EQ(s.totalWalks, 6u);
    EXPECT_EQ(s.multiWalkInstructions, 1u);
}

TEST_F(IommuFixture, WalkCacheAbsorbsPteTraffic)
{
    IommuConfig with_cache;
    with_cache.useWalkCache = true;
    build(core::SchedulerKind::Fcfs, with_cache);
    for (Addr i = 0; i < 32; ++i)
        issue(region.base + i * mem::pageSize, i);
    eq.run();
    const auto dram_reads_cached = dram->reads();

    IommuConfig no_cache;
    no_cache.useWalkCache = false;
    build(core::SchedulerKind::Fcfs, no_cache);
    for (Addr i = 0; i < 32; ++i)
        issue(region.base + i * mem::pageSize, i);
    eq.run();
    EXPECT_LT(dram_reads_cached, dram->reads());
    EXPECT_EQ(iommu->walkCache(), nullptr);
}

TEST_F(IommuFixture, PwcShortensLaterWalks)
{
    build(core::SchedulerKind::Fcfs);
    issue(region.base, 1);
    eq.run();
    // Second walk in the same 2MB region: leaf access only.
    issue(region.base + 8 * mem::pageSize, 2);
    eq.run();
    EXPECT_EQ(iommu->pwc().hits(), 1u);
}

} // namespace

/**
 * @file
 * Tests for the IOMMU's idle-bandwidth next-page prefetcher.
 */

#include <gtest/gtest.h>

#include "iommu/iommu.hh"
#include "mem/dram_controller.hh"
#include "system/system.hh"
#include "vm/address_space.hh"
#include "request_sinks.hh"

namespace {

using namespace gpuwalk;
using gpuwalk::mem::Addr;

struct PrefetchFixture : public ::testing::Test
{
    sim::EventQueue eq;
    tlb::TranslationTable translations;
    mem::MemoryTable requests;
    test::TranslationCallbacks owner{translations};
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(1) << 30};
    std::unique_ptr<vm::AddressSpace> as;
    std::unique_ptr<mem::DramController> dram;
    std::unique_ptr<iommu::Iommu> iommu;
    vm::VaRegion region;

    void
    build(bool prefetch)
    {
        as = std::make_unique<vm::AddressSpace>(store, frames);
        region = as->allocate("data", 1024 * 1024);
        dram = std::make_unique<mem::DramController>(
            eq, mem::DramConfig{}, requests);
        iommu::IommuConfig cfg;
        cfg.prefetch.kind = prefetch ? iommu::PrefetchKind::NextPage
                                     : iommu::PrefetchKind::Off;
        iommu = std::make_unique<iommu::Iommu>(
            eq, cfg, core::makeScheduler(core::SchedulerKind::Fcfs),
            translations, requests, *dram, store, as->pageTable().root());
    }

    Addr
    translate(Addr va_page)
    {
        Addr result = 0;
        tlb::TranslationRequest req;
        req.vaPage = va_page;
        req.instruction = 1;
        iommu->translate(
            owner.issue(req, [&](Addr pa, bool) { result = pa; }));
        eq.run();
        return result;
    }
};

TEST_F(PrefetchFixture, IdleWalkerPrefetchesNextPage)
{
    build(/*prefetch=*/true);
    translate(region.base);
    EXPECT_EQ(iommu->prefetches(), 1u);
    // The next page is now an IOMMU TLB hit: no new walk.
    const auto walks_before = iommu->walkRequests();
    translate(region.base + mem::pageSize);
    EXPECT_EQ(iommu->walkRequests(), walks_before);
}

TEST_F(PrefetchFixture, PrefetchedTranslationIsCorrect)
{
    build(/*prefetch=*/true);
    translate(region.base);
    const Addr pa = translate(region.base + mem::pageSize);
    EXPECT_EQ(pa,
              *as->pageTable().translate(region.base + mem::pageSize));
}

TEST_F(PrefetchFixture, DisabledByDefault)
{
    build(/*prefetch=*/false);
    translate(region.base);
    EXPECT_EQ(iommu->prefetches(), 0u);
    const auto walks_before = iommu->walkRequests();
    translate(region.base + mem::pageSize);
    EXPECT_EQ(iommu->walkRequests(), walks_before + 1);
}

TEST_F(PrefetchFixture, NeverWalksPastTheMappedRegion)
{
    build(/*prefetch=*/true);
    // The last page's successor is the unmapped guard page: the
    // prefetcher must skip it rather than panic in the walker.
    translate(region.end() - mem::pageSize);
    EXPECT_EQ(iommu->prefetches(), 0u);
}

TEST_F(PrefetchFixture, AlreadyCachedNextPageIsNotPrefetched)
{
    build(/*prefetch=*/true);
    translate(region.base);              // prefetches base+1
    const auto count = iommu->prefetches();
    // Walk base+2 directly; its successor base+3 gets prefetched, but
    // re-translating base gives no new prefetch (base+1 cached).
    translate(region.base + 2 * mem::pageSize);
    translate(region.base);
    EXPECT_EQ(iommu->prefetches(), count + 1);
}

TEST_F(PrefetchFixture, PrefetchWalksAreCountedSeparately)
{
    build(/*prefetch=*/true);
    translate(region.base);
    // walksCompleted includes the prefetch; demand metrics do not.
    EXPECT_EQ(iommu->walksCompleted(), 2u);
    EXPECT_EQ(iommu->metrics().summarize().totalWalks, 1u);
}

TEST(PrefetchSystem, EndToEndStreamingWorkloadBenefits)
{
    // A sequential-streaming workload (regular app) should see fewer
    // demand walks with prefetching on.
    workload::WorkloadParams params;
    params.wavefronts = 16;
    params.instructionsPerWavefront = 24;
    params.footprintScale = 0.2;

    auto cfg = system::SystemConfig::baseline();
    system::System off(cfg);
    off.loadBenchmark("BCK", params);
    const auto off_stats = off.run();

    cfg.iommu.prefetch.kind = iommu::PrefetchKind::NextPage;
    system::System on(cfg);
    on.loadBenchmark("BCK", params);
    const auto on_stats = on.run();

    EXPECT_GT(on.iommu().prefetches(), 0u);
    EXPECT_LE(on_stats.walkRequests, off_stats.walkRequests);
}

} // namespace

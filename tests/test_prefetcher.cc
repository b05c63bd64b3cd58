/**
 * @file
 * Tests for the IOMMU's idle-bandwidth prefetch gates: idle-walker
 * issue, the TLB-probe filter, the mapped-region bound and the
 * prefetch counters, driven by SPP predictions on stride-1 streams.
 */

#include <gtest/gtest.h>

#include "exp/run.hh"
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
        cfg.prefetch.kind = prefetch ? iommu::PrefetchKind::Spp
                                     : iommu::PrefetchKind::Off;
        // One candidate per trigger: each trained touch proposes
        // exactly its successor page.
        cfg.prefetch.degree = 1;
        iommu = std::make_unique<iommu::Iommu>(
            eq, cfg, core::makeScheduler(core::SchedulerKind::Fcfs),
            translations, requests, *dram, store, as->pageTable().root());
    }

    Addr
    translate(Addr va_page, std::uint32_t wavefront = 0)
    {
        Addr result = 0;
        tlb::TranslationRequest req;
        req.vaPage = va_page;
        req.instruction = 1;
        req.wavefront = wavefront;
        iommu->translate(
            owner.issue(req, [&](Addr pa, bool) { result = pa; }));
        eq.run();
        return result;
    }

    /** Page @p i of the region. */
    Addr page(unsigned i) const { return region.base + i * mem::pageSize; }

    /**
     * Translates the six pages ending at @p last in order. A stride-1
     * stream reaches SPP's signature fixed point after five touches,
     * so only the sixth proposes a page: the successor of @p last.
     */
    void
    stream(Addr last)
    {
        for (Addr va = last - 5 * mem::pageSize; va <= last;
             va += mem::pageSize) {
            translate(va);
        }
    }
};

TEST_F(PrefetchFixture, IdleWalkerPrefetchesPredictedPage)
{
    build(/*prefetch=*/true);
    stream(page(5));
    EXPECT_EQ(iommu->prefetches(), 1u);
    // The predicted page is now an IOMMU TLB hit: no new walk.
    const auto walks_before = iommu->walkRequests();
    translate(page(6));
    EXPECT_EQ(iommu->walkRequests(), walks_before);
}

TEST_F(PrefetchFixture, PrefetchedTranslationIsCorrect)
{
    build(/*prefetch=*/true);
    stream(page(5));
    const Addr pa = translate(page(6));
    EXPECT_EQ(pa, *as->pageTable().translate(page(6)));
}

TEST_F(PrefetchFixture, DisabledByDefault)
{
    build(/*prefetch=*/false);
    stream(page(5));
    EXPECT_EQ(iommu->prefetches(), 0u);
    const auto walks_before = iommu->walkRequests();
    translate(page(6));
    EXPECT_EQ(iommu->walkRequests(), walks_before + 1);
}

TEST_F(PrefetchFixture, NeverWalksPastTheMappedRegion)
{
    build(/*prefetch=*/true);
    // The last page's successor is the unmapped guard page: the
    // prefetcher must skip it rather than panic in the walker.
    stream(region.end() - mem::pageSize);
    EXPECT_EQ(iommu->prefetches(), 0u);
}

TEST_F(PrefetchFixture, AlreadyCachedPredictionIsNotPrefetched)
{
    build(/*prefetch=*/true);
    stream(page(5));                   // prefetches page 6
    const auto count = iommu->prefetches();
    // Fresh streams share the trained pattern table, so each one's
    // second stride-1 touch proposes its successor. Walk pages 10 and
    // 11 on wavefront 1: page 12 gets prefetched. Re-touching pages 4
    // and 5 on wavefront 2 gives no new prefetch (page 6 cached).
    translate(page(10), 1);
    translate(page(11), 1);
    translate(page(4), 2);
    translate(page(5), 2);
    EXPECT_EQ(iommu->prefetches(), count + 1);
}

TEST_F(PrefetchFixture, PrefetchWalksAreCountedSeparately)
{
    build(/*prefetch=*/true);
    stream(page(5));
    // walksCompleted includes the prefetch; demand metrics do not.
    EXPECT_EQ(iommu->walksCompleted(), 7u);
    EXPECT_EQ(iommu->metrics().summarize().totalWalks, 6u);
}

TEST(PrefetchSystem, EndToEndStreamingWorkloadBenefits)
{
    // A regular streaming workload should see fewer demand walks with
    // prefetching on: HOT's unit-stride stencil rows give SPP
    // per-wavefront page strides to learn.
    workload::WorkloadParams params;
    params.wavefronts = 16;
    params.instructionsPerWavefront = 24;
    params.footprintScale = 0.2;

    auto cfg = system::SystemConfig::baseline();
    const auto off_stats = exp::run({cfg, {{"HOT", params}}});

    cfg.iommu.prefetch.kind = iommu::PrefetchKind::Spp;
    const auto on = exp::build({cfg, {{"HOT", params}}});
    const auto on_stats = on->run();

    EXPECT_GT(on->iommu().prefetches(), 0u);
    EXPECT_LE(on_stats.walkRequests, off_stats.walkRequests);
}

} // namespace

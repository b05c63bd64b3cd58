/**
 * @file
 * Regression tests for (ctx, page) key aliasing.
 *
 * The fault-parking and GMMU bookkeeping maps used to pack their keys
 * as `va_page | ctx`. A page-aligned VA leaves only 12 free low bits,
 * but ContextId is 16 bits wide: ASIDs >= 4096 spilled into VA bit 12
 * and above, so (ctx 4096, page P) and (ctx 0, page P + 0x1000)
 * produced the SAME key — silently coalescing faults and sharing
 * residency/pin state across tenants. mem::pageCtxKey() packs the
 * page number above the full 16-bit ctx instead; these tests drive
 * exactly the colliding pair and fail on the old encoding.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "iommu/iommu.hh"
#include "mem/dram_controller.hh"
#include "mem/types.hh"
#include "vm/address_space.hh"
#include "vm/gmmu.hh"
#include "request_sinks.hh"

namespace {

using namespace gpuwalk;
using gpuwalk::mem::Addr;
using Ctx = vm::Gmmu::ContextId;

/** The first ASID whose old-style key spilled into VA bits. */
constexpr Ctx highCtx = 4096;

/** The key helpers themselves must be injective on (ctx, page). */
TEST(PageCtxKey, HighAsidsDoNotAliasIntoVaBits)
{
    const Addr page = 0x40000000;
    // The historical collision: page | 4096 == (page + 0x1000) | 0.
    ASSERT_EQ(page | highCtx, (page + 0x1000) | 0u)
        << "test premise broken: pick a page with bit 12 clear";
    EXPECT_NE(mem::pageCtxKey(highCtx, page),
              mem::pageCtxKey(0, page + 0x1000));

    // Round trip through the packing.
    const std::uint64_t key = mem::pageCtxKey(highCtx, page);
    EXPECT_EQ(mem::ctxOfKey(key), highCtx);
    EXPECT_EQ(mem::pageOfKey(key), page);

    // Monotone in the page for a fixed ctx (ordered-map iteration
    // order of single-tenant runs is unchanged by the re-keying).
    EXPECT_LT(mem::pageCtxKey(0, page),
              mem::pageCtxKey(0, page + mem::pageSize));
}

/** Two spaces with colliding VA layouts, registered at ASIDs 0 and
 *  4096 — the exact pair the old packing merged. */
struct HighAsidGmmuHarness
{
    HighAsidGmmuHarness()
        : frames(Addr(1) << 30, false), gmmu(eq, cfg(), frames, store)
    {
        for (const Ctx ctx : {Ctx{0}, highCtx}) {
            spaces.push_back(
                std::make_unique<vm::AddressSpace>(store, frames));
            spaces.back()->setDemandPaging(true);
            gmmu.registerSpace(ctx, *spaces.back());
            regions.push_back(
                spaces.back()->allocate("buf", 64 * mem::pageSize));
        }
        gmmu.setServiceCallback([this](Ctx ctx, Addr page) {
            serviced.emplace_back(ctx, page);
        });
    }

    static vm::GmmuConfig
    cfg()
    {
        vm::GmmuConfig c;
        c.enabled = true;
        c.faultLatency = 1'000;
        c.migrationLatency = 100;
        return c;
    }

    /** A page of the high-ASID space with VA bit 12 clear, so its
     *  old-style key equals lowAliasPage()'s. */
    Addr
    highPage() const
    {
        Addr p = regions[1].base;
        if (p & 0x1000)
            p += mem::pageSize;
        return p;
    }

    /** The ctx-0 page one 4 KB step above: the old-key twin. */
    Addr lowAliasPage() const { return highPage() + 0x1000; }

    void
    drain()
    {
        while (eq.runOne()) {
        }
    }

    sim::EventQueue eq;
    mem::BackingStore store;
    vm::FrameAllocator frames;
    std::vector<std::unique_ptr<vm::AddressSpace>> spaces;
    std::vector<vm::VaRegion> regions;
    vm::Gmmu gmmu;
    std::vector<std::pair<Ctx, Addr>> serviced;
};

TEST(HighAsidAliasing, ResidencyIsPerContext)
{
    HighAsidGmmuHarness h;
    const Addr hi = h.highPage(), lo = h.lowAliasPage();
    ASSERT_EQ(hi | highCtx, lo | 0u); // old keys collide

    h.gmmu.raiseFault(highCtx, hi);
    h.drain();

    EXPECT_TRUE(h.gmmu.isResident(highCtx, hi));
    // The old packing marked ctx 0's alias page resident too, so its
    // first touch never faulted and read an unmapped page.
    EXPECT_FALSE(h.gmmu.isResident(0, lo));
    EXPECT_FALSE(h.gmmu.isResident(0, hi));
}

TEST(HighAsidAliasing, FaultsAreNotCoalescedAcrossContexts)
{
    HighAsidGmmuHarness h;
    const Addr hi = h.highPage(), lo = h.lowAliasPage();

    h.gmmu.raiseFault(highCtx, hi);
    h.gmmu.raiseFault(0, lo);
    h.drain();

    EXPECT_EQ(h.gmmu.faultsRaised(), 2u);
    EXPECT_EQ(h.gmmu.faultsServiced(), 2u);
    EXPECT_EQ(h.gmmu.faultsCoalesced(), 0u);
    ASSERT_EQ(h.serviced.size(), 2u);
    EXPECT_TRUE(h.gmmu.isResident(highCtx, hi));
    EXPECT_TRUE(h.gmmu.isResident(0, lo));
}

TEST(HighAsidAliasing, PinCountsAreNotShared)
{
    HighAsidGmmuHarness h;
    const Addr hi = h.highPage(), lo = h.lowAliasPage();

    h.gmmu.pin(highCtx, hi);
    h.gmmu.pin(0, lo);
    // Old keys collapsed both pins onto one entry (count 2); the
    // first unpin then left the OTHER tenant's page unprotected.
    EXPECT_EQ(h.gmmu.pinnedPages(), 2u);
    h.gmmu.unpin(highCtx, hi);
    EXPECT_EQ(h.gmmu.pinnedPages(), 1u);
    h.gmmu.unpin(0, lo);
    EXPECT_EQ(h.gmmu.pinnedPages(), 0u);
}

/** IOMMU + GMMU end to end: the faulted_ parking map must not merge
 *  walks of old-key twins into one parking list. */
struct HighAsidIommuFixture : public ::testing::Test
{
    sim::EventQueue eq;
    tlb::TranslationTable translations;
    mem::MemoryTable requests;
    test::TranslationCallbacks owner{translations};
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(1) << 30, false};
    std::vector<std::unique_ptr<vm::AddressSpace>> spaces;
    std::vector<vm::VaRegion> regions;
    std::unique_ptr<mem::DramController> dram;
    std::unique_ptr<vm::Gmmu> gmmu;
    std::unique_ptr<iommu::Iommu> iommu;

    void
    SetUp() override
    {
        for (const Ctx ctx : {Ctx{0}, highCtx}) {
            (void)ctx;
            spaces.push_back(
                std::make_unique<vm::AddressSpace>(store, frames));
            spaces.back()->setDemandPaging(true);
            regions.push_back(
                spaces.back()->allocate("buf", 64 * mem::pageSize));
        }
        gmmu = std::make_unique<vm::Gmmu>(
            eq, HighAsidGmmuHarness::cfg(), frames, store);
        gmmu->registerSpace(0, *spaces[0]);
        gmmu->registerSpace(highCtx, *spaces[1]);

        dram = std::make_unique<mem::DramController>(
            eq, mem::DramConfig{}, requests);
        iommu = std::make_unique<iommu::Iommu>(
            eq, iommu::IommuConfig{},
            core::makeScheduler(core::SchedulerKind::Fcfs), translations,
            requests, *dram, store, spaces[0]->pageTable().root());
        iommu->registerContext(highCtx,
                               spaces[1]->pageTable().root());
        iommu->attachGmmu(gmmu.get());
    }

    Addr
    translate(tlb::ContextId ctx, Addr va_page)
    {
        Addr result = 0;
        tlb::TranslationRequest req;
        req.vaPage = va_page;
        req.instruction = 1;
        req.ctx = ctx;
        iommu->translate(
            owner.issue(req, [&](Addr pa, bool) { result = pa; }));
        eq.run();
        return result;
    }

    Addr
    highPage() const
    {
        Addr p = regions[1].base;
        if (p & 0x1000)
            p += mem::pageSize;
        return p;
    }
};

TEST_F(HighAsidIommuFixture, FaultParkingKeepsOldKeyTwinsSeparate)
{
    const Addr hi = highPage();
    const Addr lo = hi + 0x1000;
    ASSERT_EQ(hi | highCtx, lo | 0u); // old keys collide

    // Both walks fault and both must complete with the right tenant's
    // translation. Under the old key the second walk parked on the
    // FIRST fault's list and was re-walked with the wrong page
    // resident (or the assertion in onFaultServiced fired).
    const Addr paHi = translate(highCtx, hi);
    const Addr paLo = translate(0, lo);

    EXPECT_EQ(iommu->faultedWalks(), 0u);
    EXPECT_EQ(gmmu->faultsRaised(), 2u);
    EXPECT_EQ(paHi, *spaces[1]->pageTable().translate(hi));
    EXPECT_EQ(paLo, *spaces[0]->pageTable().translate(lo));
    EXPECT_TRUE(gmmu->isResident(highCtx, hi));
    EXPECT_TRUE(gmmu->isResident(0, lo));
    EXPECT_FALSE(gmmu->isResident(0, hi));
    EXPECT_FALSE(gmmu->isResident(highCtx, lo));
}

TEST_F(HighAsidIommuFixture, ConcurrentTwinFaultsParkOnSeparateEntries)
{
    const Addr hi = highPage();
    const Addr lo = hi + 0x1000;

    // Submit both before running: the two faults are raised in the
    // same batch window, the case where old-key coalescing merged the
    // parking lists.
    Addr paHi = 0, paLo = 0;
    tlb::TranslationRequest a;
    a.vaPage = hi;
    a.instruction = 1;
    a.ctx = highCtx;
    iommu->translate(owner.issue(a, [&](Addr pa, bool) { paHi = pa; }));
    tlb::TranslationRequest b;
    b.vaPage = lo;
    b.instruction = 2;
    b.ctx = 0;
    iommu->translate(owner.issue(b, [&](Addr pa, bool) { paLo = pa; }));
    eq.run();

    EXPECT_EQ(gmmu->faultsRaised(), 2u);
    EXPECT_EQ(gmmu->faultsCoalesced(), 0u);
    EXPECT_EQ(iommu->faultedWalks(), 0u);
    EXPECT_EQ(paHi, *spaces[1]->pageTable().translate(hi));
    EXPECT_EQ(paLo, *spaces[0]->pageTable().translate(lo));
}

} // namespace

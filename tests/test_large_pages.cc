/**
 * @file
 * Tests for 2 MB large-page support: PS-bit page-table mappings,
 * 3-access walks, dual-granularity TLBs, and the end-to-end system
 * (the paper's §VI "why not large pages?" discussion).
 */

#include <gtest/gtest.h>

#include "iommu/page_table_walker.hh"
#include "system/system.hh"
#include "tlb/set_assoc_tlb.hh"
#include "vm/address_space.hh"
#include "workload/registry.hh"
#include "request_sinks.hh"

namespace {

using namespace gpuwalk;
using gpuwalk::mem::Addr;

TEST(LargePagePageTable, MapLargeTranslatesWholeRegion)
{
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(1) << 30};
    vm::PageTable table(store, frames);

    table.mapLarge(0x40000000, 0x200000);
    // Every 4 KB page inside the 2 MB region translates.
    for (Addr off : {Addr(0), Addr(0x1000), Addr(0x1ff000),
                     Addr(0x12345) & ~Addr(0xfff)}) {
        auto pa = table.translate(0x40000000 + off + 0xabc);
        ASSERT_TRUE(pa.has_value()) << off;
        EXPECT_EQ(*pa, 0x200000 + off + 0xabc);
    }
    // Only PML4 + PDPT + PD pages were created (no PT level).
    EXPECT_EQ(table.tablePages(), 3u);
}

TEST(LargePagePageTable, EntryAddressStopsAtLeaf)
{
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(1) << 30};
    vm::PageTable table(store, frames);
    table.mapLarge(0x40000000, 0x200000);
    // There is no PT level under a large mapping.
    EXPECT_FALSE(
        table.entryAddress(0x40000000, vm::PtLevel::Pt).has_value());
    EXPECT_TRUE(
        table.entryAddress(0x40000000, vm::PtLevel::Pd).has_value());
}

TEST(LargePagePageTableDeathTest, AlignmentEnforced)
{
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(1) << 30};
    vm::PageTable table(store, frames);
    EXPECT_DEATH(table.mapLarge(0x40001000, 0x200000), "unaligned");
    EXPECT_DEATH(table.mapLarge(0x40000000, 0x201000), "unaligned");
}

TEST(LargePageFrameAllocator, LargeFramesAreAlignedAndDisjoint)
{
    vm::FrameAllocator frames{Addr(1) << 30};
    const Addr a = frames.allocateLargeFrame();
    const Addr b = frames.allocateLargeFrame();
    EXPECT_EQ(a % vm::largePageSize, 0u);
    EXPECT_EQ(b % vm::largePageSize, 0u);
    EXPECT_NE(a, b);
    // Small frames come from the bottom; no overlap with the top.
    const Addr small = frames.allocateFrame();
    EXPECT_LT(small, std::min(a, b));
}

TEST(LargePageTlb, LargeEntryCoversAllBasePages)
{
    tlb::SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(0x40000000, 0x200000, /*large_page=*/true);
    // A hit anywhere in the 2 MB region, with the right PA offset.
    auto hit = tlb.lookupEntry(0x40000000 + 0x5000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->largePage);
    EXPECT_EQ(hit->paPage, 0x200000u + 0x5000u);
    EXPECT_EQ(tlb.population(), 1u);
}

TEST(LargePageTlb, SmallEntryWinsOverLarge)
{
    tlb::SetAssocTlb tlb({"t", 32, 32});
    tlb.insert(0x40000000, 0x200000, /*large_page=*/true);
    tlb.insert(0x40005000, 0x999000, /*large_page=*/false);
    auto hit = tlb.lookupEntry(0x40005000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->largePage);
    EXPECT_EQ(hit->paPage, 0x999000u);
}

TEST(LargePageTlb, MixedEntriesCoexist)
{
    tlb::SetAssocTlb tlb({"t", 64, 16});
    for (Addr r = 0; r < 8; ++r)
        tlb.insert(r << 21, (r + 100) << 21, /*large_page=*/true);
    for (Addr p = 0; p < 8; ++p)
        tlb.insert((Addr(64) << 21) + (p << 12), p << 12, false);
    EXPECT_EQ(tlb.population(), 16u);
    for (Addr r = 0; r < 8; ++r)
        EXPECT_TRUE(tlb.probe((r << 21) + 0x3000).has_value());
}

TEST(LargePageAddressSpace, AllocatesAlignedRegions)
{
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(1) << 30};
    vm::AddressSpace as(store, frames);
    as.useLargePages(true);
    const auto region = as.allocate("big", 3 * 1024 * 1024);
    EXPECT_EQ(region.base % vm::largePageSize, 0u);
    EXPECT_EQ(region.bytes, 4u * 1024u * 1024u); // rounded to 2 MB
    // Everything inside translates.
    for (Addr va = region.base; va < region.end(); va += 0x100000)
        EXPECT_TRUE(as.pageTable().translate(va).has_value());
}

struct LargeWalkFixture : public ::testing::Test
{
    sim::EventQueue eq;
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(1) << 30};
    vm::PageTable table{store, frames};
    std::optional<iommu::PageWalkCache> pwc;

    class InstantMemory : public mem::MemoryDevice
    {
      public:
        InstantMemory(sim::EventQueue &eq, mem::MemoryTable &table)
            : eq_(eq), table_(table)
        {}
        void
        access(mem::RequestHandle req) override
        {
            ++count;
            eq_.scheduleIn(500, [this, req] { table_.complete(req); });
        }
        unsigned count = 0;

      private:
        sim::EventQueue &eq_;
        mem::MemoryTable &table_;
    };
};

TEST_F(LargeWalkFixture, LargeWalkTakesThreeAccesses)
{
    table.mapLarge(0x40000000, 0x200000);
    pwc.emplace(iommu::PwcConfig{}, table.root());
    tlb::TranslationTable translations;
    mem::MemoryTable requests;
    InstantMemory memory(eq, requests);
    std::optional<iommu::WalkResult> result;
    test::WalkCallbacks owner;
    owner.onDone = [&](iommu::WalkResult r) { result = std::move(r); };
    iommu::PageTableWalker walker(eq, translations, requests, memory, store,
                                  *pwc, owner);

    core::PendingWalk w;
    w.request = translations.acquire();
    translations.at(w.request).vaPage = 0x40000000 + 0x7000;
    walker.start(w);
    eq.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->largePage);
    EXPECT_EQ(result->memAccesses, 3u);
    EXPECT_EQ(result->paPage, 0x200000u + 0x7000u);
    EXPECT_EQ(memory.count, 3u);
    // The PS leaf itself must not pollute the PD-level walk cache.
    EXPECT_GT(pwc->peekEstimate(0x40000000), 1u);
}

TEST(LargePageSystem, EndToEndWithLargePages)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::SimtAware;
    system::System sys(cfg);
    workload::WorkloadParams params;
    params.wavefronts = 24;
    params.instructionsPerWavefront = 10;
    params.footprintScale = 0.05;
    params.useLargePages = true;
    sys.loadBenchmark("MVT", params);
    const auto stats = sys.run();
    EXPECT_EQ(stats.instructions, 24u * 10u);
    EXPECT_EQ(stats.walkRequests, stats.walksCompleted);
}

TEST(LargePageSystem, LargePagesSlashWalkCountOnStridedApps)
{
    // MVT's 64-row blocks span ~2 MB: large pages collapse the
    // per-instruction translation footprint to one or two entries.
    auto base = system::SystemConfig::baseline();
    base.scheduler = core::SchedulerKind::Fcfs;
    workload::WorkloadParams params;
    params.wavefronts = 32;
    params.instructionsPerWavefront = 12;
    params.footprintScale = 0.25;

    system::System small_sys(base);
    small_sys.loadBenchmark("MVT", params);
    const auto small = small_sys.run();

    params.useLargePages = true;
    system::System large_sys(base);
    large_sys.loadBenchmark("MVT", params);
    const auto large = large_sys.run();

    EXPECT_LT(large.walkRequests, small.walkRequests / 4);
    EXPECT_LT(large.runtimeTicks, small.runtimeTicks);
}

} // namespace

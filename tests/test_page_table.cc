/**
 * @file
 * Unit tests for the x86-64 four-level page table.
 */

#include <gtest/gtest.h>

#include "mem/backing_store.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::vm;
using gpuwalk::mem::Addr;

struct PageTableFixture : public ::testing::Test
{
    mem::BackingStore store;
    FrameAllocator frames{Addr(1) << 30};
    PageTable table{store, frames};
};

TEST_F(PageTableFixture, EmptyTableTranslatesNothing)
{
    EXPECT_FALSE(table.translate(0x1000).has_value());
    EXPECT_EQ(table.mappings(), 0u);
    EXPECT_EQ(table.tablePages(), 1u); // just the root
}

TEST_F(PageTableFixture, MapThenTranslate)
{
    table.map(0x40000000, 0x5000);
    auto pa = table.translate(0x40000000);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x5000u);
}

TEST_F(PageTableFixture, OffsetWithinPagePreserved)
{
    table.map(0x40000000, 0x5000);
    auto pa = table.translate(0x40000abc);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x5abcu);
}

TEST_F(PageTableFixture, FourLevelAllocation)
{
    table.map(0x40000000, 0x5000);
    // Root + PDPT + PD + PT.
    EXPECT_EQ(table.tablePages(), 4u);
    EXPECT_EQ(table.mappings(), 1u);
}

TEST_F(PageTableFixture, NeighbouringPagesShareTables)
{
    table.map(0x40000000, 0x5000);
    table.map(0x40001000, 0x6000);
    EXPECT_EQ(table.tablePages(), 4u); // same PT page
    EXPECT_EQ(table.mappings(), 2u);
}

TEST_F(PageTableFixture, DistantPagesAllocateSeparateSubtrees)
{
    table.map(0x40000000, 0x5000);
    const auto before = table.tablePages();
    // 512 GB away: different PML4 entry.
    table.map(Addr(1) << 39 | 0x40000000, 0x7000);
    EXPECT_EQ(table.tablePages(), before + 3);
}

TEST_F(PageTableFixture, IndexExtraction)
{
    // VA = PML4 idx 1, PDPT idx 2, PD idx 3, PT idx 4.
    const Addr va = (Addr(1) << 39) | (Addr(2) << 30) | (Addr(3) << 21)
                    | (Addr(4) << 12);
    EXPECT_EQ(PageTable::indexAt(va, PtLevel::Pml4), 1u);
    EXPECT_EQ(PageTable::indexAt(va, PtLevel::Pdpt), 2u);
    EXPECT_EQ(PageTable::indexAt(va, PtLevel::Pd), 3u);
    EXPECT_EQ(PageTable::indexAt(va, PtLevel::Pt), 4u);
}

TEST_F(PageTableFixture, RegionBaseGranularity)
{
    const Addr va = 0x40352abc;
    EXPECT_EQ(PageTable::regionBase(va, PtLevel::Pt), 0x40352000u);
    EXPECT_EQ(PageTable::regionBase(va, PtLevel::Pd),
              va & ~((Addr(1) << 21) - 1));
    EXPECT_EQ(PageTable::regionBase(va, PtLevel::Pdpt),
              va & ~((Addr(1) << 30) - 1));
}

TEST_F(PageTableFixture, EntryAddressChainsThroughLevels)
{
    const Addr va = 0x40000000;
    table.map(va, 0x5000);

    // The PML4 entry lives in the root frame at the right slot.
    auto pml4e = table.entryAddress(va, PtLevel::Pml4);
    ASSERT_TRUE(pml4e.has_value());
    EXPECT_EQ(*pml4e, table.root()
                          + Addr(PageTable::indexAt(va, PtLevel::Pml4))
                                * 8);

    // Following the chain functionally reaches the leaf PTE, whose
    // stored frame is the mapped physical page.
    auto pte = table.entryAddress(va, PtLevel::Pt);
    ASSERT_TRUE(pte.has_value());
    const std::uint64_t leaf = store.read64(*pte);
    EXPECT_TRUE(leaf & pte::present);
    EXPECT_EQ(leaf & pte::addrMask, 0x5000u);
}

TEST_F(PageTableFixture, EntryAddressOnUnmappedUpperLevel)
{
    EXPECT_FALSE(table.entryAddress(0x40000000, PtLevel::Pt)
                     .has_value());
    // The root always exists, so the PML4 slot is addressable.
    EXPECT_TRUE(table.entryAddress(0x40000000, PtLevel::Pml4)
                    .has_value());
}

TEST_F(PageTableFixture, RemapUpdatesTranslation)
{
    table.map(0x40000000, 0x5000);
    table.map(0x40000000, 0x9000);
    EXPECT_EQ(table.mappings(), 1u); // same VA, not a new mapping
    EXPECT_EQ(*table.translate(0x40000000), 0x9000u);
}

TEST_F(PageTableFixture, ManyMappingsAllTranslate)
{
    for (Addr i = 0; i < 2048; ++i)
        table.map(0x40000000 + i * mem::pageSize, 0x100000 + i * mem::pageSize);
    for (Addr i = 0; i < 2048; ++i) {
        auto pa = table.translate(0x40000000 + i * mem::pageSize + 42);
        ASSERT_TRUE(pa.has_value());
        EXPECT_EQ(*pa, 0x100000 + i * mem::pageSize + 42);
    }
    // 2048 pages span 4 PT pages under one PD.
    EXPECT_EQ(table.tablePages(), 3u + 4u);
}

TEST_F(PageTableFixture, NonWritableMapping)
{
    table.map(0x40000000, 0x5000, /*writable=*/false);
    auto pte_addr = table.entryAddress(0x40000000, PtLevel::Pt);
    ASSERT_TRUE(pte_addr.has_value());
    EXPECT_FALSE(store.read64(*pte_addr) & pte::writable);
}

TEST_F(PageTableFixture, MapRangeMatchesPerPageMap)
{
    // Twin tables on twin stores and scrambled allocators: one mapped
    // page by page, one in bulk. The first range crosses two leaf-page
    // (2 MB) boundaries and the 1 GiB PDPT boundary at 2 GiB; the
    // second starts inside a leaf page the first one created.
    mem::BackingStore perPageStore;
    mem::BackingStore bulkStore;
    FrameAllocator perPageFrames{Addr(1) << 30, /*scramble=*/true};
    FrameAllocator bulkFrames{Addr(1) << 30, /*scramble=*/true};
    PageTable perPage{perPageStore, perPageFrames};
    PageTable bulk{bulkStore, bulkFrames};

    const auto expectSameCounts = [&] {
        EXPECT_EQ(bulk.tablePages(), perPage.tablePages());
        EXPECT_EQ(bulk.mappings(), perPage.mappings());
        EXPECT_EQ(bulkFrames.framesAllocated(),
                  perPageFrames.framesAllocated());
        EXPECT_EQ(bulkStore.framesAllocated(),
                  perPageStore.framesAllocated());
    };

    const Addr first = (Addr(2) << 30) - 700 * mem::pageSize;
    const struct { Addr base; std::uint64_t pages; } ranges[] = {
        {first, 1400},
        {first + 1401 * mem::pageSize, 100},
    };
    std::uint64_t mapped = 0;
    for (const auto &range : ranges) {
        for (std::uint64_t i = 0; i < range.pages; ++i) {
            perPage.map(range.base + i * mem::pageSize,
                        perPageFrames.allocateFrame());
        }
        bulk.mapRange(range.base, range.pages);
        mapped += range.pages;
        expectSameCounts();

        for (std::uint64_t i = 0; i < range.pages; ++i) {
            const Addr va = range.base + i * mem::pageSize;
            ASSERT_TRUE(bulk.translate(va).has_value()) << va;
            EXPECT_EQ(bulk.translate(va), perPage.translate(va)) << va;
            for (unsigned l = 1; l <= numPtLevels; ++l) {
                EXPECT_EQ(bulk.entryAddress(va, PtLevel{l}),
                          perPage.entryAddress(va, PtLevel{l}))
                    << va << " level " << l;
            }
        }
    }
    EXPECT_EQ(bulk.mappings(), mapped);
    // Root, one PDPT, a PD per GiB and four leaf pages.
    EXPECT_EQ(bulk.tablePages(), 1u + 1u + 2u + 4u);

    // An empty range maps and allocates nothing.
    const auto tables = bulk.tablePages();
    const auto frames = bulkFrames.framesAllocated();
    const auto stored = bulkStore.framesAllocated();
    bulk.mapRange(Addr(1) << 39, 0);
    EXPECT_EQ(bulk.mappings(), mapped);
    EXPECT_EQ(bulk.tablePages(), tables);
    EXPECT_EQ(bulkFrames.framesAllocated(), frames);
    EXPECT_EQ(bulkStore.framesAllocated(), stored);
}

TEST_F(PageTableFixture, DeathOnUnalignedMap)
{
    EXPECT_DEATH(table.map(0x40000001, 0x5000), "unaligned va");
    EXPECT_DEATH(table.map(0x40000000, 0x5001), "unaligned pa");
}

} // namespace

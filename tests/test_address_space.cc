/**
 * @file
 * Unit tests for the address space and frame allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "vm/address_space.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::vm;
using gpuwalk::mem::Addr;

TEST(FrameAllocator, SequentialAllocation)
{
    FrameAllocator alloc(Addr(1) << 20, /*scramble=*/false);
    EXPECT_EQ(alloc.framesTotal(), 256u);
    EXPECT_EQ(alloc.allocateFrame(), 0u);
    EXPECT_EQ(alloc.allocateFrame(), 4096u);
    EXPECT_EQ(alloc.framesAllocated(), 2u);
}

TEST(FrameAllocator, ScrambleIsBijective)
{
    FrameAllocator alloc(Addr(1) << 22, /*scramble=*/true);
    std::set<Addr> seen;
    for (std::uint64_t i = 0; i < alloc.framesTotal(); ++i) {
        const Addr f = alloc.allocateFrame();
        EXPECT_EQ(f % mem::pageSize, 0u);
        EXPECT_LT(f, Addr(1) << 22);
        EXPECT_TRUE(seen.insert(f).second) << "duplicate frame " << f;
    }
}

TEST(FrameAllocator, ScrambleScattersNeighbours)
{
    FrameAllocator alloc(Addr(1) << 26, /*scramble=*/true);
    const Addr a = alloc.allocateFrame();
    const Addr b = alloc.allocateFrame();
    EXPECT_NE(b, a + mem::pageSize);
}

TEST(FrameAllocatorDeathTest, ExhaustionPanics)
{
    FrameAllocator alloc(2 * mem::pageSize);
    alloc.allocateFrame();
    alloc.allocateFrame();
    EXPECT_DEATH(alloc.allocateFrame(), "out of physical memory");
}

TEST(FrameAllocator, ScrambledFramesNeverLieInLargeFrames)
{
    // Under scramble, 4 KB frames spread over all of memory while 2 MB
    // frames come from the top; neither may land inside the other,
    // whichever is taken first. In 8 GiB, bump index 10064 is the first
    // 4 KB frame in the topmost 2 MB block.
    constexpr Addr physBytes = Addr(8) << 30;
    const auto inside = [](const std::vector<Addr> &large, Addr frame) {
        return std::any_of(large.begin(), large.end(), [&](Addr base) {
            return frame >= base && frame < base + largePageSize;
        });
    };

    {
        FrameAllocator alloc(physBytes, /*scramble=*/true);
        std::vector<Addr> small;
        for (int i = 0; i < 10065; ++i)
            small.push_back(alloc.allocateFrame());
        std::vector<Addr> large;
        for (int i = 0; i < 4; ++i)
            large.push_back(alloc.allocateLargeFrame());
        for (const Addr f : small)
            EXPECT_FALSE(inside(large, f)) << "4 KB frame " << f;
        EXPECT_EQ(alloc.framesInUse(), 10065u + 4u * 512u);
    }
    {
        FrameAllocator alloc(physBytes, /*scramble=*/true);
        std::vector<Addr> large;
        for (int i = 0; i < 64; ++i)
            large.push_back(alloc.allocateLargeFrame());
        std::set<Addr> small;
        for (int i = 0; i < 20000; ++i) {
            const Addr f = alloc.allocateFrame();
            EXPECT_FALSE(inside(large, f)) << "4 KB frame " << f;
            EXPECT_TRUE(small.insert(f).second) << "duplicate " << f;
        }
        EXPECT_EQ(alloc.framesAllocated(), 20000u);
        EXPECT_EQ(alloc.framesInUse(), 20000u + 64u * 512u);
    }
}

struct AddressSpaceFixture : public ::testing::Test
{
    mem::BackingStore store;
    FrameAllocator frames{Addr(1) << 30};
    AddressSpace as{store, frames};
};

TEST_F(AddressSpaceFixture, AllocateMapsEveryPage)
{
    const auto region = as.allocate("buf", 64 * 1024);
    EXPECT_EQ(region.bytes, 64u * 1024u);
    for (Addr va = region.base; va < region.end(); va += mem::pageSize)
        EXPECT_TRUE(as.pageTable().translate(va).has_value());
}

TEST_F(AddressSpaceFixture, RoundsUpToWholePages)
{
    const auto region = as.allocate("odd", 100);
    EXPECT_EQ(region.bytes, mem::pageSize);
}

TEST_F(AddressSpaceFixture, GuardPagesBetweenRegions)
{
    const auto a = as.allocate("a", mem::pageSize);
    const auto b = as.allocate("b", mem::pageSize);
    EXPECT_GE(b.base, a.end() + mem::pageSize);
    // The guard page is unmapped.
    EXPECT_FALSE(as.pageTable().translate(a.end()).has_value());
}

TEST_F(AddressSpaceFixture, DistinctRegionsDistinctFrames)
{
    const auto a = as.allocate("a", 16 * mem::pageSize);
    const auto b = as.allocate("b", 16 * mem::pageSize);
    std::set<Addr> frames_seen;
    for (const auto &r : {a, b}) {
        for (Addr va = r.base; va < r.end(); va += mem::pageSize) {
            auto pa = as.pageTable().translate(va);
            ASSERT_TRUE(pa.has_value());
            EXPECT_TRUE(frames_seen.insert(*pa).second);
        }
    }
}

TEST_F(AddressSpaceFixture, RegionFramesMatchPerPageMapping)
{
    // Scrambled twins: a region mapped by allocate() takes the same
    // frames as a page-by-page map() of the same pages.
    mem::BackingStore refStore;
    FrameAllocator refFrames{Addr(1) << 30, /*scramble=*/true};
    PageTable reference{refStore, refFrames};
    mem::BackingStore bulkStore;
    FrameAllocator bulkFrames{Addr(1) << 30, /*scramble=*/true};
    AddressSpace bulk{bulkStore, bulkFrames};

    const auto region = bulk.allocate("buf", 1500 * mem::pageSize);
    for (Addr va = region.base; va < region.end(); va += mem::pageSize)
        reference.map(va, refFrames.allocateFrame());
    for (Addr va = region.base; va < region.end(); va += mem::pageSize)
        EXPECT_EQ(bulk.pageTable().translate(va), reference.translate(va));
    EXPECT_EQ(bulk.pageTable().tablePages(), reference.tablePages());
    EXPECT_EQ(bulkFrames.framesAllocated(), refFrames.framesAllocated());
}

TEST_F(AddressSpaceFixture, FootprintSumsRegions)
{
    as.allocate("a", 3 * mem::pageSize);
    as.allocate("b", 5 * mem::pageSize);
    EXPECT_EQ(as.footprintBytes(), 8u * mem::pageSize);
    EXPECT_EQ(as.regions().size(), 2u);
}

TEST_F(AddressSpaceFixture, RegionsCarryNames)
{
    as.allocate("matrix_A", mem::pageSize);
    EXPECT_EQ(as.regions().front().name, "matrix_A");
}

} // namespace

/**
 * @file
 * Unit tests for the page table walker state machine.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "iommu/page_table_walker.hh"
#include "mem/backing_store.hh"
#include "request_sinks.hh"
#include "sim/event_queue.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::iommu;
using gpuwalk::mem::Addr;

/** Fixed-latency memory recording accessed addresses. */
class RecordingMemory : public mem::MemoryDevice
{
  public:
    RecordingMemory(sim::EventQueue &eq, mem::MemoryTable &table,
                    sim::Tick latency)
        : eq_(eq), table_(table), latency_(latency)
    {}

    void
    access(mem::RequestHandle req) override
    {
        accesses.push_back(table_.at(req).addr);
        EXPECT_EQ(table_.at(req).requester, mem::Requester::PageWalk);
        eq_.scheduleIn(latency_, [this, req] { table_.complete(req); });
    }

    std::vector<Addr> accesses;

  private:
    sim::EventQueue &eq_;
    mem::MemoryTable &table_;
    sim::Tick latency_;
};

struct WalkerFixture : public ::testing::Test
{
    sim::EventQueue eq;
    tlb::TranslationTable translations;
    mem::MemoryTable requests;
    test::WalkCallbacks owner;
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(1) << 30};
    vm::PageTable table{store, frames};
    RecordingMemory memory{eq, requests, 100 * 500};
    std::optional<PageWalkCache> pwc;
    std::unique_ptr<PageTableWalker> walker;

    void
    SetUp() override
    {
        pwc.emplace(PwcConfig{}, table.root());
        walker = std::make_unique<PageTableWalker>(
            eq, translations, requests, memory, store, *pwc, owner);
    }

    core::PendingWalk
    makeWalk(Addr va_page, tlb::InstructionId instr = 1)
    {
        core::PendingWalk w;
        w.request = translations.acquire();
        translations.at(w.request).vaPage = va_page;
        translations.at(w.request).instruction = instr;
        w.instruction = instr;
        w.arrival = eq.now();
        return w;
    }

    /** Starts @p w; @p done sees the walk's result. */
    void
    start(const core::PendingWalk &w, test::WalkCallbacks::Callback done)
    {
        owner.onDone = std::move(done);
        walker->start(w);
    }
};

TEST_F(WalkerFixture, ColdWalkTakesFourAccesses)
{
    table.map(0x40000000, 0xabc000);
    std::optional<WalkResult> result;
    start(makeWalk(0x40000000),
                  [&](WalkResult r) { result = std::move(r); });
    EXPECT_TRUE(walker->busy());
    eq.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->memAccesses, 4u);
    EXPECT_EQ(result->paPage, 0xabc000u);
    EXPECT_FALSE(walker->busy());
    EXPECT_EQ(memory.accesses.size(), 4u);
    // Four dependent accesses: latency is 4x the memory latency.
    EXPECT_EQ(result->finished - result->started, 4u * 100u * 500u);
}

TEST_F(WalkerFixture, AccessesFollowTheRealPteChain)
{
    table.map(0x40000000, 0xabc000);
    start(makeWalk(0x40000000), [](WalkResult) {});
    eq.run();
    // The addresses the walker touched are exactly the entry
    // addresses the page table records for each level.
    using vm::PtLevel;
    ASSERT_EQ(memory.accesses.size(), 4u);
    EXPECT_EQ(memory.accesses[0],
              *table.entryAddress(0x40000000, PtLevel::Pml4));
    EXPECT_EQ(memory.accesses[1],
              *table.entryAddress(0x40000000, PtLevel::Pdpt));
    EXPECT_EQ(memory.accesses[2],
              *table.entryAddress(0x40000000, PtLevel::Pd));
    EXPECT_EQ(memory.accesses[3],
              *table.entryAddress(0x40000000, PtLevel::Pt));
}

TEST_F(WalkerFixture, WalkFillsPwcForUpperLevels)
{
    table.map(0x40000000, 0xabc000);
    start(makeWalk(0x40000000), [](WalkResult) {});
    eq.run();
    // The next walk in the same 2 MB region needs only the leaf.
    EXPECT_EQ(pwc->peekEstimate(0x40000000 + mem::pageSize), 1u);
}

TEST_F(WalkerFixture, WarmWalkTakesOneAccess)
{
    table.map(0x40000000, 0xabc000);
    table.map(0x40001000, 0xdef000);
    start(makeWalk(0x40000000), [](WalkResult) {});
    eq.run();
    memory.accesses.clear();

    std::optional<WalkResult> result;
    start(makeWalk(0x40001000),
                  [&](WalkResult r) { result = std::move(r); });
    eq.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->memAccesses, 1u);
    EXPECT_EQ(result->paPage, 0xdef000u);
    EXPECT_EQ(memory.accesses.size(), 1u);
}

TEST_F(WalkerFixture, SequentialWalksReuseWalker)
{
    table.map(0x40000000, 0x111000);
    table.map(0x80000000, 0x222000);
    unsigned done = 0;
    start(makeWalk(0x40000000), [&](WalkResult) { ++done; });
    eq.run();
    start(makeWalk(0x80000000), [&](WalkResult) { ++done; });
    eq.run();
    EXPECT_EQ(done, 2u);
    EXPECT_EQ(walker->walksDone(), 2u);
}

TEST_F(WalkerFixture, ResultCarriesRequestMetadata)
{
    table.map(0x40000000, 0x111000);
    std::optional<WalkResult> result;
    auto w = makeWalk(0x40000000, /*instr=*/77);
    w.seq = 123;
    start(std::move(w),
                  [&](WalkResult r) { result = std::move(r); });
    eq.run();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->walk.instruction, 77u);
    EXPECT_EQ(result->walk.seq, 123u);
}

TEST_F(WalkerFixture, DeathOnUnmappedAddress)
{
    EXPECT_DEATH(
        {
            start(makeWalk(0x40000000), [](WalkResult) {});
            eq.run();
        },
        "non-present");
}

TEST_F(WalkerFixture, DeathOnDoubleStart)
{
    table.map(0x40000000, 0x111000);
    start(makeWalk(0x40000000), [](WalkResult) {});
    EXPECT_DEATH(start(makeWalk(0x40000000), [](WalkResult) {}),
                 "busy");
}

} // namespace

/**
 * @file
 * Unit tests for DRAM address mapping and the FR-FCFS controller.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/dram.hh"
#include "mem/dram_controller.hh"
#include "request_sinks.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::mem;

TEST(DramAddressMapper, InterleavesLinesAcrossChannels)
{
    DramConfig cfg;
    DramAddressMapper mapper(cfg);
    const auto a = mapper.decode(0);
    const auto b = mapper.decode(cacheLineSize);
    EXPECT_NE(a.channel, b.channel);
}

TEST(DramAddressMapper, DecodeIsWithinBounds)
{
    DramConfig cfg;
    DramAddressMapper mapper(cfg);
    for (Addr addr = 0; addr < Addr(1) << 24; addr += 4096 + 64) {
        const auto d = mapper.decode(addr);
        EXPECT_LT(d.channel, cfg.channels);
        EXPECT_LT(d.rank, cfg.ranksPerChannel);
        EXPECT_LT(d.bank, cfg.banksPerRank);
        EXPECT_LT(d.column, cfg.rowBytes / cacheLineSize);
    }
}

TEST(DramAddressMapper, DistinctAddressesDistinctCoordinates)
{
    DramConfig cfg;
    DramAddressMapper mapper(cfg);
    std::set<std::tuple<unsigned, unsigned, std::uint64_t,
                        std::uint64_t>>
        seen;
    for (Addr addr = 0; addr < Addr(1) << 20; addr += cacheLineSize) {
        const auto d = mapper.decode(addr);
        auto key = std::make_tuple(d.channel,
                                   mapper.flatBank(d), d.row, d.column);
        EXPECT_TRUE(seen.insert(key).second)
            << "aliased address " << addr;
    }
}

struct ControllerFixture : public ::testing::Test
{
    sim::EventQueue eq;
    MemoryTable table;
    test::MemoryCallbacks owner{table};
    DramConfig cfg;
    std::unique_ptr<DramController> ctrl;

    void
    SetUp() override
    {
        ctrl = std::make_unique<DramController>(eq, cfg, table);
    }

    /** Issues a read and returns its completion tick. */
    sim::Tick
    readAt(Addr addr)
    {
        sim::Tick done = 0;
        MemoryRequest req;
        req.addr = addr;
        ctrl->access(owner.issue(req, [&] { done = eq.now(); }));
        eq.run();
        return done;
    }
};

TEST_F(ControllerFixture, SingleReadCompletesWithClosedBankLatency)
{
    const sim::Tick done = readAt(0);
    // Closed bank: tRCD + tCL + tBURST.
    EXPECT_EQ(done, cfg.rcd() + cfg.cl() + cfg.burst());
    EXPECT_EQ(ctrl->reads(), 1u);
    EXPECT_EQ(ctrl->rowMisses(), 1u);
}

TEST_F(ControllerFixture, RowHitIsFasterThanConflict)
{
    // First access opens the row.
    readAt(0);
    // Same row, next column: row hit. The column stride covers all
    // channel/bank/rank bits below the column bits.
    const Addr col_stride = cacheLineSize * cfg.channels
                            * cfg.banksPerRank * cfg.ranksPerChannel;
    const sim::Tick t0 = eq.now();
    MemoryRequest hit;
    hit.addr = col_stride; // same bank, same row, next column
    sim::Tick hit_done = 0;
    ctrl->access(owner.issue(hit, [&] { hit_done = eq.now(); }));
    eq.run();
    const sim::Tick hit_lat = hit_done - t0;

    // Different row, same bank: conflict.
    const sim::Tick t1 = eq.now();
    MemoryRequest conf;
    conf.addr = cfg.rowBytes * cfg.channels * cfg.banksPerRank
                * cfg.ranksPerChannel;
    sim::Tick conf_done = 0;
    ctrl->access(owner.issue(conf, [&] { conf_done = eq.now(); }));
    eq.run();
    const sim::Tick conf_lat = conf_done - t1;

    EXPECT_LT(hit_lat, conf_lat);
    EXPECT_GE(ctrl->rowHits(), 1u);
    EXPECT_GE(ctrl->rowConflicts(), 1u);
}

TEST_F(ControllerFixture, BankParallelismOverlapsAccesses)
{
    // Two reads to different banks of one channel should overlap:
    // total time far less than 2x a serial access.
    std::vector<sim::Tick> done;
    for (int i = 0; i < 2; ++i) {
        MemoryRequest req;
        // Same channel (stride channels*lineSize), different banks.
        req.addr = Addr(i) * cfg.channels * cacheLineSize;
        ctrl->access(owner.issue(req, [&] { done.push_back(eq.now()); }));
    }
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    const sim::Tick serial =
        2 * (cfg.rcd() + cfg.cl() + cfg.burst());
    EXPECT_LT(done.back(), serial);
}

TEST_F(ControllerFixture, FrFcfsPrefersRowHits)
{
    // Occupy bank 0 and open row 0 (do not drain the queue yet), so
    // the two requests below are both pending when the bank frees.
    MemoryRequest opener;
    opener.addr = 0;
    ctrl->access(owner.issue(opener));
    // Enqueue a conflict (other row, bank 0) first, then a row hit.
    std::vector<int> order;
    MemoryRequest conflict;
    conflict.addr = cfg.rowBytes * cfg.channels * cfg.banksPerRank
                    * cfg.ranksPerChannel;
    MemoryRequest hit;
    hit.addr = cacheLineSize * cfg.channels * cfg.banksPerRank
               * cfg.ranksPerChannel; // row 0, bank 0, col 1
    ctrl->access(owner.issue(conflict, [&] { order.push_back(1); }));
    ctrl->access(owner.issue(hit, [&] { order.push_back(2); }));
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    // The row hit (2) completes before the conflict (1).
    EXPECT_EQ(order.front(), 2);
}

TEST_F(ControllerFixture, WritesAreCountedSeparately)
{
    MemoryRequest w;
    w.addr = 128;
    w.write = true;
    ctrl->access(owner.issue(w));
    eq.run();
    EXPECT_EQ(ctrl->writes(), 1u);
    EXPECT_EQ(ctrl->reads(), 0u);
}

TEST_F(ControllerFixture, PageWalkRequesterIsAttributed)
{
    MemoryRequest r;
    r.addr = 64;
    r.requester = Requester::PageWalk;
    ctrl->access(owner.issue(r));
    eq.run();
    EXPECT_EQ(ctrl->pageWalkAccesses(), 1u);
}

TEST_F(ControllerFixture, ManyRequestsAllComplete)
{
    unsigned completed = 0;
    for (unsigned i = 0; i < 500; ++i) {
        MemoryRequest req;
        req.addr = Addr(i) * 4096 + (i % 7) * cacheLineSize;
        req.write = (i % 3) == 0;
        ctrl->access(owner.issue(req, [&] { ++completed; }));
    }
    eq.run();
    EXPECT_EQ(completed, 500u);
    EXPECT_EQ(ctrl->reads() + ctrl->writes(), 500u);
}



TEST_F(ControllerFixture, RefreshClosesRowsAndDelaysCommands)
{
    // Open a row early, then access the same row after a refresh
    // boundary: the row must read as closed (a miss, not a hit).
    readAt(0);
    EXPECT_EQ(ctrl->rowMisses(), 1u);

    // Jump time past the first refresh of rank 0.
    eq.schedule(cfg.tREFI + cfg.tRFC + 1000, [] {});
    eq.run();

    readAt(0);
    EXPECT_EQ(ctrl->rowHits(), 0u);
    EXPECT_EQ(ctrl->rowMisses(), 2u);
}

TEST_F(ControllerFixture, AccessInsideRefreshWindowIsDelayed)
{
    // Land a request exactly at a refresh boundary of rank 0: its
    // completion must be pushed past tRFC.
    sim::Tick done = 0;
    eq.schedule(cfg.tREFI, [&] {
        MemoryRequest req;
        req.addr = 0;
        ctrl->access(owner.issue(req, [&] { done = eq.now(); }));
    });
    eq.run();
    EXPECT_GE(done, cfg.tREFI + cfg.tRFC);
    EXPECT_GE(ctrl->stats().name().size(), 1u);
}

TEST_F(ControllerFixture, RefreshDisabledHasNoWindows)
{
    cfg.enableRefresh = false;
    ctrl = std::make_unique<DramController>(eq, cfg, table);
    sim::Tick done = 0;
    eq.schedule(cfg.tREFI, [&] {
        MemoryRequest req;
        req.addr = 0;
        ctrl->access(owner.issue(req, [&] { done = eq.now(); }));
    });
    eq.run();
    EXPECT_LT(done, cfg.tREFI + cfg.tRFC);
}

} // namespace

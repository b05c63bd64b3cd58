/**
 * @file
 * Property and fuzz tests for the demand-paging GMMU (vm/gmmu.hh),
 * driven directly — no IOMMU, no GPU — so every property is checked
 * against a hand-controlled fault/pin/evict schedule:
 *
 *  - residency never exceeds the frame cap, under randomized fault
 *    storms across eviction policies;
 *  - a page pinned by an in-flight walk is never evicted (and an
 *    all-pinned resident set stalls servicing instead of corrupting
 *    it);
 *  - fault counters conserve at teardown (raised == serviced once
 *    drained);
 *  - an evict -> re-fault round trip preserves owner-encoded page
 *    contents, across ASIDs whose virtual addresses collide;
 *  - a fully resident 2 MB range is promoted to a PS-bit mapping and
 *    demoted again before any of its pages is evicted, with the
 *    VA->PA function unchanged throughout; with no free 2 MB block,
 *    pages fall back to scattered 4 KB frames.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "mem/backing_store.hh"
#include "sim/audit.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"
#include "vm/gmmu.hh"

namespace {

using namespace gpuwalk;
using Ctx = vm::Gmmu::ContextId;

vm::GmmuConfig
fastCfg()
{
    // Orders of magnitude below the defaults: these tests measure
    // bookkeeping, not latency modeling.
    vm::GmmuConfig cfg;
    cfg.enabled = true;
    cfg.faultLatency = 1'000;
    cfg.migrationLatency = 100;
    cfg.batchSize = 4;
    return cfg;
}

/** Gmmu over real page tables and a shared frame pool of
 *  @p phys_bytes; @p num_spaces address spaces with deliberately
 *  colliding VA layouts. */
struct GmmuHarness
{
    explicit GmmuHarness(const vm::GmmuConfig &cfg = fastCfg(),
                         unsigned num_spaces = 1,
                         mem::Addr phys_bytes = mem::Addr(1) << 30)
        : frames(phys_bytes, false), gmmu(eq, cfg, frames, store)
    {
        for (unsigned i = 0; i < num_spaces; ++i) {
            spaces.push_back(
                std::make_unique<vm::AddressSpace>(store, frames));
            spaces.back()->setDemandPaging(true);
            gmmu.registerSpace(static_cast<Ctx>(i), *spaces.back());
            regions.push_back(
                spaces.back()->allocate("buf", 2048 * mem::pageSize));
        }
        gmmu.setServiceCallback([this](Ctx ctx, mem::Addr page) {
            serviced.emplace_back(ctx, page);
        });
    }

    mem::Addr
    pageAt(unsigned ctx, unsigned i) const
    {
        return regions[ctx].base + mem::Addr(i) * mem::pageSize;
    }

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
    std::vector<std::pair<Ctx, mem::Addr>> serviced;
};

TEST(GmmuTest, FaultServiceMapsThePageAndReportsIt)
{
    GmmuHarness h;
    const mem::Addr page = h.pageAt(0, 3);
    EXPECT_FALSE(h.gmmu.isResident(0, page));
    EXPECT_FALSE(h.spaces[0]->pageTable().translate(page).has_value());

    h.gmmu.raiseFault(0, page);
    EXPECT_EQ(h.gmmu.pendingFaults(), 1u);
    h.drain();

    EXPECT_TRUE(h.gmmu.isResident(0, page));
    EXPECT_TRUE(h.spaces[0]->pageTable().translate(page).has_value());
    EXPECT_EQ(h.gmmu.pendingFaults(), 0u);
    EXPECT_EQ(h.gmmu.faultsRaised(), 1u);
    EXPECT_EQ(h.gmmu.faultsServiced(), 1u);
    ASSERT_EQ(h.serviced.size(), 1u);
    EXPECT_EQ(h.serviced[0], std::make_pair(Ctx{0}, page));
    // One batch: interrupt cost + one migration.
    EXPECT_GE(h.eq.now(), sim::Tick{1'100});
}

TEST(GmmuTest, ResidencyNeverExceedsCapUnderFuzzedFaultStorms)
{
    // The cap property, under every eviction policy, under a
    // randomized schedule of raises interleaved with partial event
    // execution (so eviction pressure hits mid-batch too).
    for (const auto evict : {vm::EvictPolicy::Lru,
                             vm::EvictPolicy::Random}) {
        auto cfg = fastCfg();
        cfg.evict = evict;
        GmmuHarness h(cfg);
        constexpr std::uint64_t cap = 8;
        h.gmmu.setFrameCap(cap);

        sim::Auditor auditor;
        h.gmmu.registerInvariants(auditor);

        sim::Rng rng(7 + static_cast<std::uint64_t>(evict) * 2);
        std::set<mem::Addr> outstanding; // raised, not yet serviced
        h.gmmu.setServiceCallback([&outstanding](Ctx, mem::Addr page) {
            outstanding.erase(page);
        });

        for (int step = 0; step < 400; ++step) {
            const mem::Addr page =
                h.pageAt(0, static_cast<unsigned>(rng.below(64)));
            if (!h.gmmu.isResident(0, page)
                && outstanding.insert(page).second) {
                h.gmmu.raiseFault(0, page);
            }
            // Partial progress: a few events, then re-check.
            const auto burst = rng.below(4);
            for (std::uint64_t e = 0; e < burst; ++e)
                h.eq.runOne();
            ASSERT_LE(h.gmmu.residentPages(), cap) << "at step " << step;
            if (step % 50 == 0)
                auditor.check(sim::AuditPhase::Periodic, h.eq.now());
        }
        h.drain();
        EXPECT_TRUE(outstanding.empty());
        EXPECT_GT(h.gmmu.pagesEvicted(), 0u);
        auditor.check(sim::AuditPhase::Final, h.eq.now());
        EXPECT_TRUE(auditor.clean())
            << vm::toString(evict) << ": "
            << auditor.violations().front().invariant << ": "
            << auditor.violations().front().message;
    }
}

TEST(GmmuTest, PinnedPageIsNeverEvicted)
{
    GmmuHarness h;
    h.gmmu.setFrameCap(2);
    const mem::Addr a = h.pageAt(0, 0);
    const mem::Addr b = h.pageAt(0, 1);
    const mem::Addr c = h.pageAt(0, 2);

    h.gmmu.raiseFault(0, a);
    h.drain();
    h.gmmu.raiseFault(0, b);
    h.drain();
    ASSERT_TRUE(h.gmmu.isResident(0, a));
    ASSERT_TRUE(h.gmmu.isResident(0, b));

    // a is the LRU victim-to-be; pinning it must divert the eviction
    // to b even under LRU order.
    h.gmmu.pin(0, a);
    h.gmmu.raiseFault(0, c);
    h.drain();

    EXPECT_TRUE(h.gmmu.isResident(0, a));
    EXPECT_FALSE(h.gmmu.isResident(0, b));
    EXPECT_TRUE(h.gmmu.isResident(0, c));
    EXPECT_EQ(h.gmmu.pagesEvicted(), 1u);
    h.gmmu.unpin(0, a);

    sim::Auditor auditor;
    h.gmmu.registerInvariants(auditor);
    auditor.check(sim::AuditPhase::Final, h.eq.now());
    EXPECT_TRUE(auditor.clean())
        << auditor.violations().front().message;
}

TEST(GmmuTest, AllPinnedResidencyStallsServicingUntilPinsDrain)
{
    GmmuHarness h;
    h.gmmu.setFrameCap(2);
    const mem::Addr a = h.pageAt(0, 0);
    const mem::Addr b = h.pageAt(0, 1);
    const mem::Addr c = h.pageAt(0, 2);

    h.gmmu.raiseFault(0, a);
    h.drain();
    h.gmmu.raiseFault(0, b);
    h.drain();
    h.gmmu.pin(0, a);
    h.gmmu.pin(0, b);

    // Every resident page is pinned: the fault for c must retry, not
    // evict a pinned page and not deadlock.
    h.gmmu.raiseFault(0, c);
    for (int i = 0; i < 64 && h.eq.runOne(); ++i) {
    }
    EXPECT_FALSE(h.gmmu.isResident(0, c));
    EXPECT_EQ(h.gmmu.pendingFaults(), 1u);
    EXPECT_GT(h.gmmu.summarize().serviceRetries, 0u);

    h.gmmu.unpin(0, a);
    h.gmmu.unpin(0, b);
    h.drain();
    EXPECT_TRUE(h.gmmu.isResident(0, c));
    EXPECT_FALSE(h.gmmu.isResident(0, a)); // LRU victim once unpinned
    EXPECT_EQ(h.gmmu.summarize().pinnedEvictions, 0u);
}

TEST(GmmuTest, FaultCountersConserveAtTeardown)
{
    GmmuHarness h;
    h.gmmu.setFrameCap(4);
    for (unsigned i = 0; i < 16; ++i)
        h.gmmu.raiseFault(0, h.pageAt(0, i));
    // Two coalesced walks join a pending fault mid-flight.
    h.gmmu.noteWaiter();
    h.gmmu.noteWaiter();
    h.drain();

    const auto s = h.gmmu.summarize();
    EXPECT_EQ(s.faultsRaised, 16u);
    EXPECT_EQ(s.faultsServiced, 16u);
    EXPECT_EQ(s.faultsCoalesced, 2u);
    EXPECT_EQ(h.gmmu.pendingFaults(), 0u);
    EXPECT_EQ(s.pagesMigrated, 16u);
    EXPECT_EQ(s.pagesEvicted, 12u); // 16 placed into 4 frames
    EXPECT_EQ(s.latencySamples, 16u);
    EXPECT_GT(s.latencyAvg, 0.0);

    sim::Auditor auditor;
    h.gmmu.registerInvariants(auditor);
    auditor.check(sim::AuditPhase::Final, h.eq.now());
    EXPECT_TRUE(auditor.clean())
        << auditor.violations().front().message;
}

TEST(GmmuTest, EvictionRoundTripPreservesContentAcrossAsids)
{
    // Two ASIDs with byte-identical VA layouts (genuine collision).
    // Each writes owner-encoded words into its pages; capacity churn
    // then evicts and re-faults everything repeatedly. Content must
    // follow the (ctx, va) identity, never the colliding VA alone.
    GmmuHarness h(fastCfg(), 2);
    ASSERT_EQ(h.regions[0].base, h.regions[1].base)
        << "the ASID collision premise broke";
    h.gmmu.setFrameCap(3);
    constexpr unsigned numPages = 4;

    const auto encode = [](unsigned ctx, unsigned page,
                           std::size_t word) {
        return (std::uint64_t(ctx + 1) << 48)
               | (std::uint64_t(page) << 32) | word;
    };

    // Fault in and stamp every (ctx, page); churn evicts along the way.
    for (unsigned ctx = 0; ctx < 2; ++ctx) {
        for (unsigned page = 0; page < numPages; ++page) {
            const mem::Addr va = h.pageAt(ctx, page);
            if (!h.gmmu.isResident(ctx, va)) {
                h.gmmu.raiseFault(static_cast<Ctx>(ctx), va);
                h.drain();
            }
            const auto pa = h.spaces[ctx]->pageTable().translate(va);
            ASSERT_TRUE(pa.has_value());
            for (std::size_t w = 0; w < 8; ++w)
                h.store.write64(*pa + 8 * w, encode(ctx, page, w));
        }
    }

    // Churn: re-fault everything twice over, forcing each stamped page
    // through at least one evict/save/restore cycle.
    for (int round = 0; round < 2; ++round) {
        for (unsigned ctx = 0; ctx < 2; ++ctx) {
            for (unsigned page = 0; page < numPages; ++page) {
                const mem::Addr va = h.pageAt(ctx, page);
                if (!h.gmmu.isResident(ctx, va)) {
                    h.gmmu.raiseFault(static_cast<Ctx>(ctx), va);
                    h.drain();
                }
                const auto pa =
                    h.spaces[ctx]->pageTable().translate(va);
                ASSERT_TRUE(pa.has_value());
                for (std::size_t w = 0; w < 8; ++w) {
                    EXPECT_EQ(h.store.read64(*pa + 8 * w),
                              encode(ctx, page, w))
                        << "ctx " << ctx << " page " << page
                        << " word " << w << " round " << round;
                }
            }
        }
    }
    EXPECT_GT(h.gmmu.pagesEvicted(), 0u);

    sim::Auditor auditor;
    h.gmmu.registerInvariants(auditor);
    auditor.check(sim::AuditPhase::Final, h.eq.now());
    EXPECT_TRUE(auditor.clean())
        << auditor.violations().front().message;
}

TEST(GmmuTest, FullyResidentRangeIsPromotedAndDemotedBeforeEviction)
{
    constexpr std::uint64_t pagesPer2M =
        vm::largePageSize / mem::pageSize;
    GmmuHarness h;
    ASSERT_EQ(h.regions[0].base & vm::largePageMask, 0u)
        << "the region must start 2MB-aligned for a full range";

    // Fault in one full 2 MB range; record the VA->PA function as the
    // pages land in the contiguity block.
    std::vector<mem::Addr> pa(pagesPer2M);
    for (unsigned i = 0; i < pagesPer2M; ++i)
        h.gmmu.raiseFault(0, h.pageAt(0, i));
    h.drain();
    for (unsigned i = 0; i < pagesPer2M; ++i) {
        const auto t =
            h.spaces[0]->pageTable().translate(h.pageAt(0, i));
        ASSERT_TRUE(t.has_value()) << "page " << i;
        pa[i] = *t;
    }
    // Natural offsets inside one physically contiguous block.
    for (unsigned i = 1; i < pagesPer2M; ++i)
        EXPECT_EQ(pa[i], pa[0] + mem::Addr(i) * mem::pageSize);

    auto s = h.gmmu.summarize();
    EXPECT_EQ(s.promotions, 1u);
    EXPECT_EQ(s.demotions, 0u);

    // Promotion changed the tree shape, not the translation function.
    for (unsigned i = 0; i < pagesPer2M; i += 37) {
        const auto t =
            h.spaces[0]->pageTable().translate(h.pageAt(0, i));
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(*t, pa[i]);
    }

    // Capacity pressure on the promoted range: the range demotes back
    // to 4 KB leaves before its LRU page goes non-present.
    h.gmmu.setFrameCap(pagesPer2M);
    h.gmmu.raiseFault(0, h.pageAt(0, pagesPer2M)); // next range
    h.drain();

    s = h.gmmu.summarize();
    EXPECT_EQ(s.demotions, 1u);
    EXPECT_EQ(s.pagesEvicted, 1u);
    EXPECT_FALSE(h.spaces[0]->pageTable()
                     .translate(h.pageAt(0, 0))
                     .has_value());
    // Survivors keep their block placement.
    const auto t1 = h.spaces[0]->pageTable().translate(h.pageAt(0, 1));
    ASSERT_TRUE(t1.has_value());
    EXPECT_EQ(*t1, pa[1]);

    sim::Auditor auditor;
    h.gmmu.registerInvariants(auditor);
    auditor.check(sim::AuditPhase::Final, h.eq.now());
    EXPECT_TRUE(auditor.clean())
        << auditor.violations().front().message;
}

TEST(GmmuTest, ContiguityOffFallsBackToScatteredFrames)
{
    // 1 MB of physical memory holds no 2 MB block, so every region's
    // reservation fails and its pages take scattered 4 KB frames.
    GmmuHarness h(fastCfg(), 1, mem::Addr(1) << 20);
    ASSERT_FALSE(h.frames.tryAllocateLargeFrame().has_value());
    for (unsigned i = 0; i < 8; ++i)
        h.gmmu.raiseFault(0, h.pageAt(0, i));
    h.drain();
    EXPECT_EQ(h.gmmu.summarize().promotions, 0u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(h.gmmu.isResident(0, h.pageAt(0, i)));

    sim::Auditor auditor;
    h.gmmu.registerInvariants(auditor);
    auditor.check(sim::AuditPhase::Final, h.eq.now());
    EXPECT_TRUE(auditor.clean())
        << auditor.violations().front().message;
}

TEST(GmmuTest, FcfsServicesInRaiseOrder)
{
    // Parked walks do not reorder service: raise order alone decides.
    auto cfg = fastCfg();
    cfg.batchSize = 1;
    GmmuHarness h(cfg);

    const mem::Addr first = h.pageAt(0, 0);
    const mem::Addr popular = h.pageAt(0, 1);
    h.gmmu.raiseFault(0, first);
    h.gmmu.raiseFault(0, popular);
    h.gmmu.noteWaiter();
    h.gmmu.noteWaiter();
    h.drain();

    ASSERT_EQ(h.serviced.size(), 2u);
    EXPECT_EQ(h.serviced[0].second, first);
    EXPECT_EQ(h.serviced[1].second, popular);
}

} // namespace

/**
 * @file
 * Unit tests for the GPU TLB hierarchy (L1 per CU + shared L2 +
 * miss path to the IOMMU).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "request_sinks.hh"
#include "tlb/tlb_hierarchy.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::tlb;
using gpuwalk::mem::Addr;

/** IOMMU stub with fixed latency and an identity+offset mapping. */
class StubIommu : public TranslationService
{
  public:
    StubIommu(sim::EventQueue &eq, TranslationTable &table,
              sim::Tick latency)
        : eq_(eq), table_(table), latency_(latency)
    {}

    void
    translate(RequestHandle req) override
    {
        ++requests;
        byPage[table_.at(req).vaPage]++;
        eq_.scheduleIn(latency_, [this, req] {
            table_.complete(req, table_.at(req).vaPage + 0x10000000);
        });
    }

    unsigned requests = 0;
    std::map<Addr, unsigned> byPage;

  private:
    sim::EventQueue &eq_;
    TranslationTable &table_;
    sim::Tick latency_;
};

struct TlbHierarchyFixture : public ::testing::Test
{
    sim::EventQueue eq;
    TranslationTable table;
    test::TranslationCallbacks owner{table};
    TlbHierarchyConfig cfg;
    StubIommu iommu{eq, table, 500 * 500};
    std::unique_ptr<TlbHierarchy> tlbs;

    void
    SetUp() override
    {
        cfg.numCus = 4;
        tlbs = std::make_unique<TlbHierarchy>(eq, cfg, table, iommu);
    }

    /** Translates synchronously; returns the PA. */
    Addr
    translate(Addr va_page, std::uint32_t cu = 0,
              std::uint32_t wavefront = 0,
              tlb::InstructionId instr = 1)
    {
        Addr result = 0;
        TranslationRequest req;
        req.vaPage = va_page;
        req.cu = cu;
        req.wavefront = wavefront;
        req.instruction = instr;
        tlbs->translate(owner.issue(req, [&](Addr pa, bool) { result = pa; }));
        eq.run();
        return result;
    }
};

TEST_F(TlbHierarchyFixture, ColdMissReachesIommu)
{
    const Addr pa = translate(0x40000000);
    EXPECT_EQ(pa, 0x50000000u);
    EXPECT_EQ(iommu.requests, 1u);
    EXPECT_EQ(tlbs->iommuRequests(), 1u);
}

TEST_F(TlbHierarchyFixture, FillMakesSecondAccessAnL1Hit)
{
    translate(0x40000000);
    translate(0x40000000);
    EXPECT_EQ(iommu.requests, 1u);
    EXPECT_EQ(tlbs->l1(0).hits(), 1u);
}

TEST_F(TlbHierarchyFixture, CrossCuReuseHitsSharedL2)
{
    translate(0x40000000, /*cu=*/0);
    translate(0x40000000, /*cu=*/1);
    // The second CU misses its own L1 but hits the shared L2.
    EXPECT_EQ(iommu.requests, 1u);
    EXPECT_EQ(tlbs->l2().hits(), 1u);
    // And fills its own L1.
    EXPECT_TRUE(tlbs->l1(1).probe(0x40000000).has_value());
}

TEST_F(TlbHierarchyFixture, ConcurrentSamePageMissesMergeAtL1)
{
    unsigned done = 0;
    for (int i = 0; i < 4; ++i) {
        TranslationRequest req;
        req.vaPage = 0x40000000;
        req.cu = 0;
        req.instruction = 1;
        tlbs->translate(owner.issue(req, [&](Addr, bool) { ++done; }));
    }
    eq.run();
    EXPECT_EQ(done, 4u);
    EXPECT_EQ(iommu.requests, 1u);
}

TEST_F(TlbHierarchyFixture, ConcurrentCrossCuMissesMergeAtL2)
{
    unsigned done = 0;
    for (std::uint32_t cu = 0; cu < 4; ++cu) {
        TranslationRequest req;
        req.vaPage = 0x40000000;
        req.cu = cu;
        req.instruction = 1;
        tlbs->translate(owner.issue(req, [&](Addr, bool) { ++done; }));
    }
    eq.run();
    EXPECT_EQ(done, 4u);
    // One IOMMU request serves all four CUs.
    EXPECT_EQ(iommu.requests, 1u);
}

TEST_F(TlbHierarchyFixture, SinglePortSerializesBursts)
{
    // A 16-page burst from one CU cannot finish faster than 16 port
    // slots even with an instant IOMMU.
    std::vector<sim::Tick> completions;
    for (Addr i = 0; i < 16; ++i) {
        TranslationRequest req;
        req.vaPage = 0x40000000 + i * mem::pageSize;
        req.cu = 0;
        req.instruction = 1;
        tlbs->translate(owner.issue(
            req, [&](Addr, bool) { completions.push_back(eq.now()); }));
    }
    eq.run();
    ASSERT_EQ(completions.size(), 16u);
    EXPECT_GE(completions.back() - completions.front(),
              15u * cfg.l1PortPeriod);
}

TEST_F(TlbHierarchyFixture, EpochMetricCountsDistinctWavefronts)
{
    cfg.epochLength = 8;
    tlbs = std::make_unique<TlbHierarchy>(eq, cfg, table, iommu);
    // 8 L2 accesses from 2 distinct wavefronts -> one epoch of 2.
    for (unsigned i = 0; i < 8; ++i) {
        TranslationRequest req;
        req.vaPage = 0x40000000 + Addr(i) * mem::pageSize;
        req.cu = 0;
        req.wavefront = i % 2;
        req.instruction = 1;
        tlbs->translate(owner.issue(req, [](Addr, bool) {}));
        eq.run();
    }
    EXPECT_EQ(tlbs->epochs(), 1u);
    EXPECT_DOUBLE_EQ(tlbs->avgWavefrontsPerEpoch(), 2.0);
}

TEST_F(TlbHierarchyFixture, InvalidateAllForcesMissesAgain)
{
    translate(0x40000000);
    tlbs->invalidateAll();
    translate(0x40000000);
    EXPECT_EQ(iommu.requests, 2u);
}

TEST_F(TlbHierarchyFixture, L1CapacityEvictionFallsBackToL2)
{
    // Fill the 32-entry L1 beyond capacity; early pages must still be
    // L2 hits (512 entries hold them all).
    for (Addr i = 0; i < 40; ++i)
        translate(0x40000000 + i * mem::pageSize);
    const auto l2_hits_before = tlbs->l2().hits();
    translate(0x40000000); // evicted from L1, still in L2
    EXPECT_EQ(tlbs->l2().hits(), l2_hits_before + 1);
    EXPECT_EQ(iommu.requests, 40u);
}

TEST_F(TlbHierarchyFixture, DeathOnBadCu)
{
    TranslationRequest req;
    req.vaPage = 0x1000;
    req.cu = 99;
    EXPECT_DEATH(tlbs->translate(owner.issue(req)), "bad CU");
}

} // namespace

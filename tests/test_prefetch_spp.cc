/**
 * @file
 * SPP signature-path translation prefetcher tests: unit-level
 * prediction behaviour, the Iommu's in-flight dedup filter, trace
 * accounting identities, and run-to-run determinism with the
 * auditor (channel conservation included) on.
 *
 * The safety claims under test, end to end:
 *
 *  - speculative walks never duplicate a walk already in flight
 *    (buffered, walking, or fault-parked);
 *  - prefetch completions fill the IOMMU TLBs without sending a
 *    synthetic TranslationReply, so the reply channel stays balanced
 *    (system.reply_conservation holds in every audited run below);
 *  - the trace stream, the prefetch counters, and the demand-walk
 *    counters agree exactly;
 *  - --prefetch=spp is bit-identical across repeated runs.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "exp/report.hh"
#include "iommu/iommu.hh"
#include "iommu/prefetch/spp_prefetcher.hh"
#include "mem/dram_controller.hh"
#include "system/system.hh"
#include "trace/trace.hh"
#include "vm/address_space.hh"
#include "request_sinks.hh"

namespace {

using namespace gpuwalk;
using gpuwalk::mem::Addr;
using trace::Event;
using trace::EventKind;

// ---------------------------------------------------------------------
// SppPrefetcher unit tests: feed synthetic page streams directly.
// ---------------------------------------------------------------------

std::vector<iommu::PrefetchCandidate>
touch(iommu::SppPrefetcher &spp, std::uint64_t page_no,
      std::uint32_t wavefront = 0, tlb::ContextId ctx = 0)
{
    std::vector<iommu::PrefetchCandidate> out;
    spp.onDemandTouch(ctx, wavefront, page_no << mem::pageShift, out);
    return out;
}

TEST(SppPrefetcherUnit, StridedStreamProposesLookaheadChain)
{
    iommu::SppPrefetcher spp{iommu::PrefetchConfig{}};
    const std::uint64_t base = 0x40000;

    // A pure stride-1 stream converges onto a signature fixed point
    // after a handful of touches; from then on every touch proposes a
    // full lookahead chain.
    std::vector<iommu::PrefetchCandidate> last;
    for (std::uint64_t i = 0; i < 16; ++i)
        last = touch(spp, base + i);

    const iommu::PrefetchConfig cfg;
    ASSERT_EQ(last.size(), cfg.degree);
    double prev_conf = 1.0;
    for (std::size_t d = 0; d < last.size(); ++d) {
        // Chain: next page, next-next page, ... in VA (not page-no).
        EXPECT_EQ(last[d].vaPage,
                  (base + 15 + d + 1) << mem::pageShift);
        // The path confidence is a product of per-step ratios: it
        // never rises along the chain and never crosses the gate.
        EXPECT_LE(last[d].confidence, prev_conf);
        EXPECT_GE(last[d].confidence, cfg.sppConfidenceThreshold);
        prev_conf = last[d].confidence;
    }
    EXPECT_GT(spp.trainedDeltas(), 0u);
    EXPECT_EQ(spp.streamResets(), 0u);
}

TEST(SppPrefetcherUnit, PredictionIsDeterministic)
{
    // Two instances fed the same interleaved stream produce the same
    // candidates at every step (ties break to the lowest slot).
    iommu::SppPrefetcher a{iommu::PrefetchConfig{}};
    iommu::SppPrefetcher b{iommu::PrefetchConfig{}};
    const std::uint64_t base = 0x9000;
    const std::int64_t deltas[] = {1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2};

    std::uint64_t page = base;
    for (const auto d : deltas) {
        page += d;
        const auto ca = touch(a, page);
        const auto cb = touch(b, page);
        ASSERT_EQ(ca.size(), cb.size());
        for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(ca[i].vaPage, cb[i].vaPage);
            EXPECT_DOUBLE_EQ(ca[i].confidence, cb[i].confidence);
        }
    }
}

TEST(SppPrefetcherUnit, WildJumpResetsTheStream)
{
    iommu::PrefetchConfig cfg;
    iommu::SppPrefetcher spp{cfg};
    const std::uint64_t base = 0x40000;

    touch(spp, base);
    touch(spp, base + 1);
    const auto trained = spp.trainedDeltas();

    // A jump past sppMaxDelta is a phase change: the stream restarts
    // instead of folding the wild delta into the pattern table.
    const auto out =
        touch(spp, base + 1 + cfg.sppMaxDelta + 1);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(spp.streamResets(), 1u);
    EXPECT_EQ(spp.trainedDeltas(), trained);

    // The restarted stream trains again from its new anchor.
    touch(spp, base + 2 + cfg.sppMaxDelta + 1);
    EXPECT_EQ(spp.trainedDeltas(), trained + 1);
}

TEST(SppPrefetcherUnit, DegreeAndThresholdBoundTheChain)
{
    iommu::PrefetchConfig one;
    one.degree = 1;
    iommu::SppPrefetcher spp_one{one};
    std::vector<iommu::PrefetchCandidate> last;
    for (std::uint64_t i = 0; i < 16; ++i)
        last = touch(spp_one, 0x40000 + i);
    EXPECT_EQ(last.size(), 1u);

    // An unreachable confidence gate (> 1.0) silences every proposal;
    // training still happens, only the lookahead is cut off.
    iommu::PrefetchConfig strict;
    strict.sppConfidenceThreshold = 1.01;
    iommu::SppPrefetcher spp_strict{strict};
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_TRUE(touch(spp_strict, 0x40000 + i).empty());
    EXPECT_GT(spp_strict.trainedDeltas(), 0u);
}

TEST(SppPrefetcherUnit, StreamsArePerWavefrontAndContext)
{
    iommu::SppPrefetcher spp{iommu::PrefetchConfig{}};
    const std::uint64_t a = 0x40000, b = 0x80000;

    // Wavefront 0 strides by 1, wavefront 1 strides by 2, interleaved.
    // Each stream must learn its own delta, not the interleaving's.
    std::vector<iommu::PrefetchCandidate> w0, w1;
    for (std::uint64_t i = 0; i < 16; ++i) {
        w0 = touch(spp, a + i, /*wavefront=*/0);
        w1 = touch(spp, b + 2 * i, /*wavefront=*/1);
    }
    ASSERT_FALSE(w0.empty());
    ASSERT_FALSE(w1.empty());
    EXPECT_EQ(w0[0].vaPage, (a + 15 + 1) << mem::pageShift);
    EXPECT_EQ(w1[0].vaPage, (b + 30 + 2) << mem::pageShift);

    // Same wavefront id under a different ctx is a different stream:
    // its first touch anchors a fresh entry and proposes nothing.
    EXPECT_TRUE(touch(spp, a, /*wavefront=*/0, /*ctx=*/7).empty());
}

// ---------------------------------------------------------------------
// In-flight dedup: a speculative walk must never duplicate a walk the
// IOMMU already owns (satellite: no-duplicate-walk guarantee).
// ---------------------------------------------------------------------

struct DedupFixture : public ::testing::Test
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
    trace::Tracer tracer;
    vm::VaRegion region;

    void
    build(iommu::PrefetchKind kind, unsigned walkers)
    {
        as = std::make_unique<vm::AddressSpace>(store, frames);
        region = as->allocate("data", 1024 * 1024);
        dram = std::make_unique<mem::DramController>(
            eq, mem::DramConfig{}, requests);
        iommu::IommuConfig cfg;
        cfg.prefetch.kind = kind;
        // One candidate per trigger: each trained touch proposes
        // exactly its successor page.
        cfg.prefetch.degree = 1;
        cfg.numWalkers = walkers;
        iommu = std::make_unique<iommu::Iommu>(
            eq, cfg, core::makeScheduler(core::SchedulerKind::Fcfs),
            translations, requests, *dram, store, as->pageTable().root());
        iommu->setTracer(&tracer);
    }

    void
    submit(Addr va_page)
    {
        tlb::TranslationRequest req;
        req.vaPage = va_page;
        req.instruction = 1;
        iommu->translate(owner.issue(req, [](Addr, bool) {}));
    }

    /** Page @p i of the region. */
    Addr page(unsigned i) const { return region.base + i * mem::pageSize; }

    /**
     * Walks pages [0, @p n) of the region one at a time. A stride-1
     * stream reaches SPP's signature fixed point after five touches,
     * so n = 5 trains the pattern table without proposing anything:
     * from then on each stride-1 touch proposes its successor page.
     */
    void
    trainStride(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            submit(page(i));
            eq.run();
        }
    }
};

TEST_F(DedupFixture, PrefetchSkipsPagesAlreadyWalking)
{
    build(iommu::PrefetchKind::Spp, /*walkers=*/2);
    trainStride(5);
    ASSERT_EQ(iommu->prefetches(), 0u);

    // Both demand walks are in flight together: page 5 on walker 0,
    // page 6 on walker 1 (the front port admits them back to back).
    // Page 5 completes first and its proposal IS page 6 — in flight
    // on walker 1, so the dedup filter must swallow it instead of
    // duplicating the walk into the just-freed walker 0. Page 6's own
    // completion then prefetches page 7 normally.
    submit(page(5));
    submit(page(6));
    eq.run();

    EXPECT_EQ(iommu->prefetches(), 1u);
    EXPECT_EQ(iommu->walksCompleted(), 8u); // 7 demand + 1 prefetch
    EXPECT_EQ(iommu->inflightWalks(), 0u);

    std::vector<Event> issued;
    for (const auto &ev : tracer.snapshot())
        if (ev.kind == EventKind::PrefetchIssued)
            issued.push_back(ev);
    ASSERT_EQ(issued.size(), 1u);
    EXPECT_EQ(issued[0].vaPage, page(7));
    EXPECT_NE(issued[0].walker, trace::noWalker);

    // The in-flight ledger drained along with the walks.
    for (unsigned i = 0; i < 9; ++i)
        EXPECT_EQ(iommu->inflightForPage(0, page(i)), 0u);
}

TEST_F(DedupFixture, DemandAfterPrefetchCompletionHitsTheTlb)
{
    build(iommu::PrefetchKind::Spp, /*walkers=*/2);
    trainStride(6); // the sixth walk's completion prefetches page 6
    ASSERT_EQ(iommu->prefetches(), 1u);

    // The prefetched translation is a TLB hit — no new walk, and the
    // first touch is counted useful exactly once. The hit itself is a
    // demand touch, so it chains one further prefetch (page 7),
    // which stays untouched.
    const auto walks = iommu->walkRequests();
    submit(page(6));
    eq.run();
    EXPECT_EQ(iommu->walkRequests(), walks);
    EXPECT_EQ(iommu->prefetches(), 2u);

    const auto summary = iommu->prefetchSummary();
    EXPECT_TRUE(summary.enabled);
    EXPECT_EQ(summary.useful, 1u);
    EXPECT_EQ(summary.unusedAtEnd, 1u);

    std::uint64_t useful_events = 0;
    for (const auto &ev : tracer.snapshot())
        useful_events += ev.kind == EventKind::PrefetchUseful;
    EXPECT_EQ(useful_events, 1u);
}

// ---------------------------------------------------------------------
// Full-system trace accounting with SPP on.
// ---------------------------------------------------------------------

struct TracedRun
{
    std::vector<Event> events;
    system::RunStats stats;
    std::uint64_t dropped = 0;
};

TracedRun
runTraced(iommu::PrefetchKind kind, core::SchedulerKind sched)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = sched;
    cfg.trace.enabled = true;
    cfg.audit.enabled = true;
    cfg.iommu.prefetch.kind = kind;

    workload::WorkloadParams params;
    params.wavefronts = 16;
    params.instructionsPerWavefront = 24;
    params.footprintScale = 0.2;
    params.seed = 11;

    system::System sys(cfg);
    // GEV's gather streams carry enough strided sub-sequences for SPP
    // to train under both schedulers, so the accounting identities
    // are exercised with non-zero counters.
    sys.loadBenchmark("GEV", params);

    TracedRun out;
    out.stats = sys.run();
    out.dropped = sys.tracer()->dropped();
    out.events = sys.tracer()->snapshot();
    return out;
}

std::uint64_t
countKind(const std::vector<Event> &events, EventKind kind)
{
    std::uint64_t n = 0;
    for (const auto &ev : events)
        n += ev.kind == kind;
    return n;
}

TEST(SppTraceInvariants, CountersAndTraceAgree)
{
    for (const auto sched :
         {core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware}) {
        const auto run = runTraced(iommu::PrefetchKind::Spp, sched);
        ASSERT_EQ(run.dropped, 0u);
        EXPECT_EQ(run.stats.auditViolations, 0u);

        const auto &p = run.stats.prefetch;
        ASSERT_TRUE(p.enabled);
        EXPECT_EQ(p.policy, "spp");
        ASSERT_GT(p.issued, 0u) << core::toString(sched);

        // Trace/counter identities. WalkDone is traced for demand
        // walks only; prefetch completions are TLB fills, not
        // completions any instruction observes.
        EXPECT_EQ(countKind(run.events, EventKind::Enqueued),
                  run.stats.walkRequests);
        EXPECT_EQ(countKind(run.events, EventKind::WalkDone),
                  run.stats.walksCompleted - p.completed);
        // Speculative walks bypass the buffer and the scheduler
        // entirely (idle walkers only, no selectNext): with the GMMU
        // off every demand walk is dispatched and completed exactly
        // once, so Scheduled == Enqueued even though PrefetchIssued
        // walks also occupied walkers. A prefetch leaking into the
        // scheduling path would break this identity.
        EXPECT_EQ(countKind(run.events, EventKind::Scheduled),
                  countKind(run.events, EventKind::Enqueued));
        // Prefetch walks never fault (residency-gated and pinned; a
        // faulting one trips GPUWALK_ASSERT in handleFaultedWalk).
        EXPECT_EQ(countKind(run.events, EventKind::FaultRaised), 0u);
        EXPECT_EQ(countKind(run.events, EventKind::PrefetchIssued),
                  p.issued);
        EXPECT_EQ(countKind(run.events, EventKind::PrefetchUseful),
                  p.useful);

        // A walk can only be useful once per issue, and only after
        // completing; pollution and leftovers partition the rest.
        EXPECT_LE(p.completed, p.issued);
        EXPECT_LE(p.useful + p.evictedUnused + p.unusedAtEnd,
                  p.completed);

        // Replay: every PrefetchUseful consumes one earlier issue of
        // the same (ctx, page); confidences are per-mille in (0, 1000].
        std::map<std::pair<std::uint16_t, Addr>, std::uint64_t> open;
        for (const auto &ev : run.events) {
            if (ev.kind == EventKind::PrefetchIssued) {
                EXPECT_NE(ev.walker, trace::noWalker);
                EXPECT_GT(ev.arg0, 0u);
                EXPECT_LE(ev.arg0, 1000u);
                ++open[{ev.ctx, ev.vaPage}];
            } else if (ev.kind == EventKind::PrefetchUseful) {
                auto it = open.find({ev.ctx, ev.vaPage});
                ASSERT_NE(it, open.end())
                    << "useful without an issue for page "
                    << std::hex << ev.vaPage;
                ASSERT_GT(it->second, 0u);
                --it->second;
            }
        }
    }
}

TEST(SppTraceInvariants, PrefetchOffTracesNoPrefetchEvents)
{
    const auto run = runTraced(iommu::PrefetchKind::Off,
                               core::SchedulerKind::SimtAware);
    EXPECT_FALSE(run.stats.prefetch.enabled);
    EXPECT_EQ(countKind(run.events, EventKind::PrefetchIssued), 0u);
    EXPECT_EQ(countKind(run.events, EventKind::PrefetchUseful), 0u);
    // With no speculative walks, every completion is a demand one.
    EXPECT_EQ(countKind(run.events, EventKind::WalkDone),
              run.stats.walksCompleted);
    EXPECT_EQ(run.stats.walkRequests, run.stats.walksCompleted);
}

// ---------------------------------------------------------------------
// Determinism: --prefetch=spp across repeated runs, audited.
// ---------------------------------------------------------------------

struct SppRun
{
    system::RunStats stats;
    std::string statsJson;
};

SppRun
runSpp(const std::string &workload, core::SchedulerKind sched,
       bool gmmu)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = sched;
    cfg.trace.enabled = true;
    cfg.audit.enabled = true;
    cfg.audit.interval = 100'000;
    cfg.iommu.prefetch.kind = iommu::PrefetchKind::Spp;
    if (gmmu) {
        // Cold-start fault-in (ratio 1.0): prefetch walks meet the
        // residency gate and fault-parked demand walks, the hardest
        // interleaving the dedup filter sees.
        cfg.gmmu.enabled = true;
        cfg.gmmu.oversubscription = 1.0;
        cfg.gmmu.faultLatency = 20'000;
        cfg.gmmu.migrationLatency = 1'000;
        cfg.gmmu.batchSize = 8;
    }

    workload::WorkloadParams params;
    params.wavefronts = 8;
    params.instructionsPerWavefront = 12;
    params.footprintScale = 0.05;
    params.seed = 17;

    system::System sys(cfg);
    sys.loadBenchmark(workload, params);

    SppRun out;
    out.stats = sys.run();
    out.statsJson = exp::statsJsonString(out.stats);
    return out;
}

TEST(SppDeterminism, BitIdenticalAcrossRepeatRuns)
{
    struct Point
    {
        std::string workload;
        core::SchedulerKind sched;
        bool gmmu;
    };
    const std::vector<Point> points{
        {"MVT", core::SchedulerKind::SimtAware, false},
        {"GEV", core::SchedulerKind::Fcfs, true},
    };

    for (const auto &point : points) {
        const auto first = runSpp(point.workload, point.sched, point.gmmu);
        ASSERT_TRUE(first.stats.traced);
        ASSERT_EQ(first.stats.traceDropped, 0u);
        ASSERT_TRUE(first.stats.audited);
        // The audit covers system.reply_conservation: prefetch
        // completions did NOT send synthetic TranslationReplies, and
        // iommu.inflight_tracking: the dedup ledger drained to empty.
        EXPECT_EQ(first.stats.auditViolations, 0u) << point.workload;
        ASSERT_GT(first.stats.prefetch.issued, 0u)
            << point.workload << ": point never prefetches; "
            << "the differential proves nothing";
        if (point.gmmu) {
            ASSERT_GT(first.stats.gmmu.faultsRaised, 0u);
        }

        const auto repeat = runSpp(point.workload, point.sched, point.gmmu);
        EXPECT_EQ(repeat.stats.traceDigest, first.stats.traceDigest)
            << point.workload;
        EXPECT_EQ(repeat.statsJson, first.statsJson) << point.workload;
    }
}

} // namespace

/**
 * @file
 * Tests for the conservation auditor and the deterministic fault
 * injectors that prove it works.
 *
 * The auditor is only trustworthy if every invariant it registers has
 * been seen to fire. Each *AuditFault* suite below injects one precise
 * misbehaviour at a port boundary (sim/fault_injector.hh adapters) or
 * truncates a run mid-flight, then asserts the specific invariant
 * reports a violation — and that clean runs stay clean. CI runs the
 * *AuditFault* filter as its fault-injection smoke.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/walk_scheduler.hh"
#include "exp/run.hh"
#include "iommu/iommu.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/dram_controller.hh"
#include "mem/fault_injection.hh"
#include "request_sinks.hh"
#include "sim/audit.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "system/system.hh"
#include "tlb/fault_injection.hh"
#include "tlb/tlb_hierarchy.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"
#include "vm/gmmu.hh"

namespace {

using namespace gpuwalk;
using sim::AuditContext;
using sim::Auditor;
using sim::AuditPhase;
using sim::FaultInjector;
using sim::FaultKind;

bool
hasViolation(const std::vector<sim::AuditViolation> &violations,
             const std::string &invariant)
{
    return std::any_of(violations.begin(), violations.end(),
                       [&](const sim::AuditViolation &v) {
                           return v.invariant == invariant;
                       });
}

// --- Auditor unit behaviour ----------------------------------------

TEST(AuditorTest, CleanUntilAFailureIsRecorded)
{
    Auditor a;
    int calls = 0;
    a.registerInvariant("always_ok", [&](AuditContext &ctx) {
        ++calls;
        ctx.require(true, "never shown");
    });
    EXPECT_EQ(a.invariantCount(), 1u);
    EXPECT_EQ(a.check(AuditPhase::Periodic, 100), 0u);
    EXPECT_TRUE(a.clean());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(a.checksRun(), 1u);

    a.registerInvariant("broken", [](AuditContext &ctx) {
        ctx.fail("count is ", 3, " not ", 4);
    });
    EXPECT_EQ(a.check(AuditPhase::Final, 250), 1u);
    EXPECT_FALSE(a.clean());
    ASSERT_EQ(a.violations().size(), 1u);
    const auto &v = a.violations().front();
    EXPECT_EQ(v.invariant, "broken");
    EXPECT_EQ(v.message, "count is 3 not 4");
    EXPECT_EQ(v.tick, 250u);
    EXPECT_EQ(v.phase, AuditPhase::Final);
    EXPECT_EQ(a.checksRun(), 3u); // 1 + 2 invariants on the 2nd check
}

TEST(AuditorTest, RequireReturnsTheConditionForEarlyExit)
{
    Auditor a;
    a.registerInvariant("chained", [](AuditContext &ctx) {
        if (!ctx.require(false, "first identity broke"))
            return; // the pattern component checks use to avoid noise
        ctx.fail("must not reach the dependent check");
    });
    a.check(AuditPhase::Final, 0);
    ASSERT_EQ(a.violations().size(), 1u);
    EXPECT_EQ(a.violations().front().message, "first identity broke");
}

TEST(AuditorTest, ContextExposesPhaseAndTick)
{
    Auditor a;
    a.registerInvariant("probe", [](AuditContext &ctx) {
        if (ctx.final())
            ctx.fail("final at ", ctx.now());
        else
            EXPECT_EQ(ctx.phase(), AuditPhase::Periodic);
    });
    a.check(AuditPhase::Periodic, 10);
    EXPECT_TRUE(a.clean());
    a.check(AuditPhase::Final, 20);
    ASSERT_EQ(a.violations().size(), 1u);
    EXPECT_EQ(a.violations().front().message, "final at 20");
}

TEST(AuditorTest, PersistentViolationIsCappedButStillCounted)
{
    Auditor a;
    a.registerInvariant("leaky", [](AuditContext &ctx) {
        ctx.fail("still leaking");
        ctx.fail("and again");
    });
    for (int i = 0; i < 200; ++i)
        a.check(AuditPhase::Periodic, i);
    // 400 recorded, storage capped at 256, remainder only counted.
    EXPECT_EQ(a.violationCount(), 400u);
    EXPECT_EQ(a.violations().size(), 256u);
    EXPECT_EQ(a.violationsDropped(), 144u);
}

TEST(AuditorTest, EventsMonotoneClosureFiresOnBackwardsCounter)
{
    // The System registers exactly this closure shape over
    // EventQueue::executed(); a real queue cannot go backwards, so
    // the firing proof drives the closure with an injected counter.
    std::uint64_t executed = 5;
    Auditor a;
    a.registerInvariant(
        "system.events_monotone",
        [&executed, last = std::uint64_t{0}](AuditContext &ctx) mutable {
            ctx.require(executed >= last,
                        "events executed went backwards: ", last,
                        " -> ", executed);
            last = executed;
        });
    a.check(AuditPhase::Periodic, 0);
    EXPECT_TRUE(a.clean());
    executed = 3; // corrupt the counter
    a.check(AuditPhase::Periodic, 1);
    EXPECT_TRUE(hasViolation(a.violations(), "system.events_monotone"));
}

// --- FaultInjector determinism -------------------------------------

TEST(FaultInjectorTest, TargetModeHitsExactlyTheSelectedCrossing)
{
    FaultInjector inj({FaultKind::Drop, /*target=*/3});
    std::vector<FaultKind> decisions;
    for (int i = 0; i < 8; ++i)
        decisions.push_back(inj.decide());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(decisions[i],
                  i == 3 ? FaultKind::Drop : FaultKind::None);
    EXPECT_EQ(inj.crossings(), 8u);
    EXPECT_EQ(inj.injected(), 1u);
}

TEST(FaultInjectorTest, ProbabilisticModeIsBitReproduciblePerSeed)
{
    FaultInjector::Spec spec;
    spec.kind = FaultKind::Delay;
    spec.probability = 0.25;
    spec.seed = 42;
    FaultInjector a(spec), b(spec);
    spec.seed = 43;
    FaultInjector c(spec);

    std::vector<FaultKind> da, db, dc;
    for (int i = 0; i < 512; ++i) {
        da.push_back(a.decide());
        db.push_back(b.decide());
        dc.push_back(c.decide());
    }
    EXPECT_EQ(da, db);
    EXPECT_NE(da, dc);
    // Roughly a quarter of crossings hit; generous determinism bounds.
    EXPECT_GT(a.injected(), 64u);
    EXPECT_LT(a.injected(), 192u);
}

TEST(FaultInjectorTest, NoneKindNeverInjects)
{
    FaultInjector inj({});
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(inj.decide(), FaultKind::None);
    EXPECT_EQ(inj.injected(), 0u);
}

// --- Shared test fixtures ------------------------------------------

/** Completes every translation one cycle later at pa == va. */
struct ImmediateTranslation final : tlb::TranslationService
{
    ImmediateTranslation(sim::EventQueue &eq, tlb::TranslationTable &table)
        : eq(eq), table(table)
    {}

    void
    translate(tlb::RequestHandle req) override
    {
        ++received;
        eq.scheduleIn(500, [this, req] {
            table.complete(req, table.at(req).vaPage, false);
        });
    }

    sim::EventQueue &eq;
    tlb::TranslationTable &table;
    std::uint64_t received = 0;
};

/** Completes every memory access one cycle later. */
struct ImmediateMemory final : mem::MemoryDevice
{
    ImmediateMemory(sim::EventQueue &eq, mem::MemoryTable &table)
        : eq(eq), table(table)
    {}

    void
    access(mem::RequestHandle req) override
    {
        ++received;
        eq.scheduleIn(500, [this, req] { table.complete(req); });
    }

    sim::EventQueue &eq;
    mem::MemoryTable &table;
    std::uint64_t received = 0;
};

void
drain(sim::EventQueue &eq)
{
    while (eq.runOne()) {
    }
}

// --- TLB hierarchy invariants --------------------------------------

/** A GPU-side translation of @p va_page by wavefront @p wavefront. */
tlb::TranslationRequest
tlbRequest(mem::Addr va_page, std::uint32_t wavefront)
{
    tlb::TranslationRequest req;
    req.vaPage = va_page;
    req.instruction = wavefront + 1;
    req.wavefront = wavefront;
    req.cu = 0;
    return req;
}

TEST(TlbAuditFault, DroppedIommuResponseFiresMergeAndWavefrontChecks)
{
    sim::EventQueue eq;
    tlb::TranslationTable table;
    test::TranslationCallbacks owner(table);
    ImmediateTranslation below(eq, table);
    // Drop the first TLB->IOMMU crossing's response.
    tlb::FaultyTranslationService faulty(eq, table, below,
                                         {FaultKind::Drop, 0});
    tlb::TlbHierarchyConfig cfg;
    cfg.numCus = 1;
    tlb::TlbHierarchy tlbs(eq, cfg, table, faulty);

    Auditor auditor;
    tlbs.registerInvariants(auditor);

    tlbs.translate(owner.issue(tlbRequest(0x1000, 0)));
    tlbs.translate(owner.issue(tlbRequest(0x2000, 1)));
    drain(eq);

    // The wavefront-0 response was swallowed: its merge entry leaks
    // and its coalesced-in/responses-out tally cannot balance.
    EXPECT_EQ(owner.completed, 1u);
    auditor.check(AuditPhase::Final, eq.now());
    EXPECT_TRUE(hasViolation(auditor.violations(), "tlb.merge_pool"));
    EXPECT_TRUE(hasViolation(auditor.violations(),
                             "tlb.wavefront_conservation"));
}

TEST(TlbAuditFault, DroppedIommuResponseFiresRequestSlots)
{
    // The dropped response clears the L2 miss request's route while
    // its merge entry still waits on it: the hierarchy believes one
    // more request is in flight than the table routes to it, and the
    // merged GPU requests' slots outlive the drain.
    sim::EventQueue eq;
    tlb::TranslationTable table;
    test::TranslationCallbacks owner(table);
    ImmediateTranslation below(eq, table);
    tlb::FaultyTranslationService faulty(eq, table, below,
                                         {FaultKind::Drop, 0});
    tlb::TlbHierarchyConfig cfg;
    cfg.numCus = 1;
    tlb::TlbHierarchy tlbs(eq, cfg, table, faulty);

    Auditor periodic;
    table.registerInvariants(periodic);
    tlbs.translate(owner.issue(tlbRequest(0x1000, 0)));
    bool firedMidRun = false;
    while (eq.runOne()) {
        periodic.check(AuditPhase::Periodic, eq.now());
        firedMidRun = firedMidRun
                      || hasViolation(periodic.violations(),
                                      "tlb.request_slots");
    }
    EXPECT_TRUE(firedMidRun);

    Auditor final;
    table.registerInvariants(final);
    final.check(AuditPhase::Final, eq.now());
    EXPECT_TRUE(hasViolation(final.violations(), "tlb.request_slots"));
}

TEST(TlbAuditFault, CleanRunPassesAllTlbInvariants)
{
    sim::EventQueue eq;
    tlb::TranslationTable table;
    test::TranslationCallbacks owner(table);
    ImmediateTranslation below(eq, table);
    tlb::TlbHierarchyConfig cfg;
    cfg.numCus = 1;
    tlb::TlbHierarchy tlbs(eq, cfg, table, below);

    Auditor auditor;
    tlbs.registerInvariants(auditor);
    table.registerInvariants(auditor);

    for (std::uint32_t i = 0; i < 4; ++i)
        tlbs.translate(owner.issue(tlbRequest(0x1000 * (i + 1), i)));
    while (eq.runOne())
        auditor.check(AuditPhase::Periodic, eq.now());

    EXPECT_EQ(owner.completed, 4u);
    auditor.check(AuditPhase::Final, eq.now());
    EXPECT_TRUE(auditor.clean()) << auditor.violations().front().message;
}

// --- IOMMU invariants ----------------------------------------------

/**
 * Stand-alone IOMMU over an injectable memory chain: backing store,
 * a mapped VA region, and a FaultyMemoryDevice in front of an
 * immediate-completion memory stub.
 */
struct FaultyIommuHarness
{
    explicit FaultyIommuHarness(FaultInjector::Spec spec,
                                std::unique_ptr<core::WalkScheduler>
                                    sched = core::makeScheduler(
                                        core::SchedulerKind::Fcfs))
        : owner(translations), memory(eq, requests),
          faulty(eq, requests, memory, spec),
          frames(mem::Addr(1) << 30, false), space(store, frames)
    {
        region = space.allocate("buf", 64 * mem::pageSize);
        iommu::IommuConfig cfg;
        cfg.numWalkers = 1;
        cfg.useWalkCache = false;
        dut = std::make_unique<iommu::Iommu>(
            eq, cfg, std::move(sched), translations, requests, faulty,
            store, space.pageTable().root());
    }

    /** A translation of the region's page @p page, routed to owner. */
    tlb::RequestHandle
    request(unsigned page)
    {
        tlb::TranslationRequest req;
        req.vaPage = region.base + mem::Addr(page) * mem::pageSize;
        req.instruction = page + 1;
        req.wavefront = page;
        return owner.issue(req);
    }

    /** Registers the IOMMU's and both request tables' invariants. */
    void
    registerInvariants(Auditor &auditor)
    {
        dut->registerInvariants(auditor);
        translations.registerInvariants(auditor);
        requests.registerInvariants(auditor);
    }

    sim::EventQueue eq;
    tlb::TranslationTable translations;
    mem::MemoryTable requests;
    test::TranslationCallbacks owner;
    ImmediateMemory memory;
    mem::FaultyMemoryDevice faulty;
    mem::BackingStore store;
    vm::FrameAllocator frames;
    vm::AddressSpace space;
    vm::VaRegion region;
    std::unique_ptr<iommu::Iommu> dut;
};

TEST(IommuAuditFault, DroppedPteFetchFiresDrainAndOccupancyChecks)
{
    // Drop the very first PTE fetch at the IOMMU->memory boundary:
    // the lone walker hangs forever and a second walk stays buffered.
    FaultyIommuHarness h({FaultKind::Drop, 0});
    Auditor auditor;
    h.registerInvariants(auditor);

    h.dut->translate(h.request(0));
    h.dut->translate(h.request(1));
    drain(h.eq);

    EXPECT_EQ(h.owner.completed, 0u);
    EXPECT_EQ(h.dut->walkRequests(), 2u);
    EXPECT_EQ(h.dut->walksCompleted(), 0u);
    auditor.check(AuditPhase::Final, h.eq.now());
    EXPECT_TRUE(
        hasViolation(auditor.violations(), "iommu.walk_conservation"));
    EXPECT_TRUE(
        hasViolation(auditor.violations(), "iommu.buffer_drained"));
    EXPECT_TRUE(
        hasViolation(auditor.violations(), "iommu.walkers_idle"));
    // Both walks still hold their (ctx, page) in-flight keys.
    EXPECT_TRUE(
        hasViolation(auditor.violations(), "iommu.inflight_tracking"));
}

TEST(IommuAuditFault, TruncatedRunFiresRequestConservation)
{
    // A request caught mid-hop has been counted as received but not
    // yet classified as hit or walk; a final check at that instant
    // must flag the imbalance (this is what catches runs that end
    // with work still in flight).
    FaultyIommuHarness h({}); // no faults
    Auditor auditor;
    h.registerInvariants(auditor);

    h.dut->translate(h.request(0));
    // Deliberately run nothing: the request is inside the hop latency.
    auditor.check(AuditPhase::Final, h.eq.now());
    EXPECT_TRUE(hasViolation(auditor.violations(),
                             "iommu.request_conservation"));
}

TEST(IommuAuditFault, CleanRunPassesAllIommuInvariants)
{
    FaultyIommuHarness h({}); // injector present but inert
    Auditor auditor;
    h.registerInvariants(auditor);

    for (unsigned i = 0; i < 6; ++i)
        h.dut->translate(h.request(i));
    // Periodic checks during the run must tolerate in-flight work.
    while (h.eq.runOne())
        auditor.check(AuditPhase::Periodic, h.eq.now());
    auditor.check(AuditPhase::Final, h.eq.now());

    EXPECT_EQ(h.owner.completed, 6u);
    EXPECT_TRUE(auditor.clean())
        << auditor.violations().front().invariant << ": "
        << auditor.violations().front().message;
}

/**
 * A scheduler that lies to the auditor: it claims it does not track
 * aging (so buffered entries must show bypassed == 0) while its
 * newest-first selection still runs the base-class bypass bookkeeping.
 * This is the "two schedulers disagree about a shared buffer"
 * corruption iommu.buffer_counters exists to catch.
 */
struct LyingScheduler final : core::WalkScheduler
{
    std::string name() const override { return "lying"; }
    bool tracksAging() const override { return false; }

    std::size_t
    selectNext(const core::WalkBuffer &buffer) override
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < buffer.size(); ++i) {
            if (buffer.at(i).seq > buffer.at(best).seq)
                best = i;
        }
        return best;
    }
};

TEST(IommuAuditFault, InconsistentBypassCountersFireBufferCounters)
{
    FaultyIommuHarness h({}, std::make_unique<LyingScheduler>());
    Auditor auditor;
    h.registerInvariants(auditor);

    for (unsigned i = 0; i < 4; ++i)
        h.dut->translate(h.request(i));
    bool fired = false;
    while (h.eq.runOne()) {
        auditor.check(AuditPhase::Periodic, h.eq.now());
        fired = fired || hasViolation(auditor.violations(),
                                      "iommu.buffer_counters");
    }
    EXPECT_TRUE(fired)
        << "newest-first dispatch never left a bypassed entry "
           "buffered under a tracksAging()==false scheduler";
}

TEST(IommuAuditFault, PhantomTenantRequestFiresTenantAccounting)
{
    // The tenant counters gain a walk request the global counter never
    // saw: the per-tenant sums no longer match, and nothing else moves.
    FaultyIommuHarness h({});
    h.dut->setTestFaults({.phantomTenantRequest = true});
    Auditor auditor;
    h.registerInvariants(auditor);

    for (unsigned i = 0; i < 3; ++i)
        h.dut->translate(h.request(i));
    drain(h.eq);

    EXPECT_EQ(h.owner.completed, 3u);
    EXPECT_EQ(h.dut->tenantCounters(0).walkRequests,
              h.dut->walkRequests() + 1);
    auditor.check(AuditPhase::Final, h.eq.now());
    ASSERT_FALSE(auditor.clean());
    for (const auto &v : auditor.violations())
        EXPECT_EQ(v.invariant, "iommu.tenant_accounting") << v.message;
}

// --- Cache MSHR invariants -----------------------------------------

TEST(CacheAuditFault, DroppedFillLeaksAnMshr)
{
    sim::EventQueue eq;
    mem::MemoryTable table;
    test::MemoryCallbacks owner(table);
    ImmediateMemory memory(eq, table);
    mem::FaultyMemoryDevice faulty(eq, table, memory, {FaultKind::Drop, 0});
    mem::CacheConfig cfg;
    cfg.name = "testcache";
    mem::Cache cache(eq, cfg, table, faulty);

    Auditor auditor;
    cache.registerInvariants(auditor);

    cache.access(owner.issue(0x4000, false));
    drain(eq);

    EXPECT_EQ(owner.completed, 0u);
    auditor.check(AuditPhase::Final, eq.now());
    EXPECT_TRUE(hasViolation(auditor.violations(), "testcache.mshrs"));
}

TEST(CacheAuditFault, DroppedFillFiresRequestSlots)
{
    // The fill loses its route: the cache still counts its MSHR's
    // fill in flight, the table routes nothing to it, and the demand
    // request's slot is never released.
    sim::EventQueue eq;
    mem::MemoryTable table;
    test::MemoryCallbacks owner(table);
    ImmediateMemory memory(eq, table);
    mem::FaultyMemoryDevice faulty(eq, table, memory, {FaultKind::Drop, 0});
    mem::CacheConfig cfg;
    cfg.name = "testcache";
    mem::Cache cache(eq, cfg, table, faulty);

    Auditor periodic;
    table.registerInvariants(periodic);
    cache.access(owner.issue(0x4000, false));
    while (eq.runOne())
        periodic.check(AuditPhase::Periodic, eq.now());
    EXPECT_TRUE(hasViolation(periodic.violations(), "mem.request_slots"));

    Auditor final;
    table.registerInvariants(final);
    final.check(AuditPhase::Final, eq.now());
    EXPECT_TRUE(hasViolation(final.violations(), "mem.request_slots"));
}

TEST(CacheAuditFault, DelayedFillIsTheNegativeControl)
{
    // A relayed fill answers late but answers once: both the MSHR
    // accounting and the slot audit stay clean throughout.
    sim::EventQueue eq;
    mem::MemoryTable table;
    test::MemoryCallbacks owner(table);
    ImmediateMemory memory(eq, table);
    FaultInjector::Spec spec;
    spec.kind = FaultKind::Delay;
    spec.probability = 1.0; // every fill
    spec.delayTicks = 10'000;
    mem::FaultyMemoryDevice faulty(eq, table, memory, spec);
    mem::CacheConfig cfg;
    cfg.name = "testcache";
    mem::Cache cache(eq, cfg, table, faulty);

    Auditor auditor;
    cache.registerInvariants(auditor);
    table.registerInvariants(auditor);
    for (int i = 0; i < 4; ++i)
        cache.access(owner.issue(mem::Addr(i) * 0x4000, false));
    while (eq.runOne())
        auditor.check(AuditPhase::Periodic, eq.now());
    auditor.check(AuditPhase::Final, eq.now());

    EXPECT_EQ(faulty.injector().injected(), 4u);
    EXPECT_EQ(owner.completed, 4u);
    EXPECT_TRUE(auditor.clean())
        << auditor.violations().front().invariant << ": "
        << auditor.violations().front().message;
}

TEST(CacheAuditFault, CleanRunPassesMshrAccounting)
{
    sim::EventQueue eq;
    mem::MemoryTable table;
    test::MemoryCallbacks owner(table);
    ImmediateMemory memory(eq, table);
    mem::CacheConfig cfg;
    cfg.name = "testcache";
    mem::Cache cache(eq, cfg, table, memory);

    Auditor auditor;
    cache.registerInvariants(auditor);
    table.registerInvariants(auditor);

    for (int i = 0; i < 8; ++i) // distinct lines
        cache.access(owner.issue(mem::Addr(i) * 0x4000, false));
    while (eq.runOne())
        auditor.check(AuditPhase::Periodic, eq.now());
    auditor.check(AuditPhase::Final, eq.now());

    EXPECT_EQ(owner.completed, 8u);
    EXPECT_TRUE(auditor.clean())
        << auditor.violations().front().message;
}

// --- DRAM queue invariants -----------------------------------------

TEST(DramAuditFault, TruncatedRunFiresQueueDrainCheck)
{
    sim::EventQueue eq;
    mem::MemoryTable table;
    test::MemoryCallbacks owner(table);
    mem::DramController dram(eq, mem::DramConfig{}, table);
    Auditor auditor;
    dram.registerInvariants(auditor);

    // Same-address requests map to one bank: the first goes straight
    // into service, the rest must wait in the channel queue.
    for (int i = 0; i < 4; ++i)
        dram.access(owner.issue(0x10000, false));
    // Deliberately run nothing: requests are sitting in the queue.
    auditor.check(AuditPhase::Final, eq.now());
    EXPECT_TRUE(
        hasViolation(auditor.violations(), "dram.queues_drained"));

    // Draining the queue clears the violation source.
    drain(eq);
    Auditor fresh;
    dram.registerInvariants(fresh);
    fresh.check(AuditPhase::Final, eq.now());
    EXPECT_TRUE(fresh.clean());
}

// --- Full-system invariants ----------------------------------------

workload::WorkloadParams
tinySystemParams()
{
    workload::WorkloadParams params;
    params.wavefronts = 16;
    params.instructionsPerWavefront = 6;
    params.footprintScale = 0.02;
    return params;
}

TEST(GpuAuditFault, TruncatedRunFiresWavefrontCompletion)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.audit.enabled = true;
    const auto sys = exp::build({cfg, {{"KMN", tinySystemParams()}}});

    // Drive the run by hand and stop long before the GPU is done —
    // the final audit must notice the unfinished wavefronts.
    sys->gpu().start();
    for (int i = 0; i < 200; ++i)
        sys->eventQueue().runOne();
    ASSERT_FALSE(sys->gpu().done());
    ASSERT_NE(sys->auditor(), nullptr);
    sys->auditor()->check(AuditPhase::Final, sys->eventQueue().now());
    EXPECT_TRUE(hasViolation(sys->auditor()->violations(),
                             "gpu.wavefront_completion"));
}

TEST(SystemAuditFault, TruncatedRunFiresReplyConservation)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.audit.enabled = true;
    const auto sys = exp::build({cfg, {{"KMN", tinySystemParams()}}});

    // Stop the run while the IOMMU owes an answer: the final audit must
    // see a received request that was never answered.
    sys->gpu().start();
    while (sys->iommu().requests() <= sys->iommu().responses())
        ASSERT_TRUE(sys->eventQueue().runOne());
    ASSERT_NE(sys->auditor(), nullptr);
    sys->auditor()->check(AuditPhase::Final, sys->eventQueue().now());
    EXPECT_TRUE(hasViolation(sys->auditor()->violations(),
                             "system.reply_conservation"));
}

TEST(SystemAuditFault, DuplicatedRequestFiresTranslationConservation)
{
    // A phantom request injected between the TLB hierarchy and the
    // IOMMU desynchronises the forwarded/received counters — the
    // cross-component identity only the System-level invariant sees.
    // The phantom carries every field of the real request, so it also
    // walks in the right address space when the run is a tenant's.
    for (const bool tenant : {false, true}) {
        SCOPED_TRACE(tenant ? "tenant context" : "default context");
        auto cfg = system::SystemConfig::baseline();
        cfg.audit.enabled = true;
        std::unique_ptr<tlb::FaultyTranslationService> faulty;
        cfg.translationInterposer =
            [&faulty](sim::EventQueue &eq, tlb::TranslationTable &table,
                      tlb::TranslationService &below)
            -> tlb::TranslationService * {
            faulty = std::make_unique<tlb::FaultyTranslationService>(
                eq, table, below,
                FaultInjector::Spec{FaultKind::Duplicate, 0});
            return faulty.get();
        };
        const auto stats = exp::run({cfg,
                                     {{.workload = "KMN",
                                       .params = tinySystemParams(),
                                       .newContext = tenant}}});

        ASSERT_NE(faulty, nullptr);
        EXPECT_EQ(faulty->injector().injected(), 1u);
        EXPECT_TRUE(stats.audited);
        EXPECT_GT(stats.auditViolations, 0u);
        EXPECT_TRUE(hasViolation(stats.auditFindings,
                                 "system.translation_conservation"));
    }
}

TEST(SystemAuditFault, DelayedResponseIsTheNegativeControl)
{
    // Conservation is timing-independent: delivering one response two
    // hundred cycles late perturbs the timing but must audit clean
    // once the run drains.
    auto cfg = system::SystemConfig::baseline();
    cfg.audit.enabled = true;
    cfg.audit.interval = 250'000;
    std::unique_ptr<tlb::FaultyTranslationService> faulty;
    cfg.translationInterposer =
        [&faulty](sim::EventQueue &eq, tlb::TranslationTable &table,
                  tlb::TranslationService &below)
        -> tlb::TranslationService * {
        FaultInjector::Spec spec;
        spec.kind = FaultKind::Delay;
        spec.target = 0;
        spec.delayTicks = 200 * 500;
        faulty = std::make_unique<tlb::FaultyTranslationService>(
            eq, table, below, spec);
        return faulty.get();
    };
    const auto stats = exp::run({cfg, {{"KMN", tinySystemParams()}}});

    ASSERT_NE(faulty, nullptr);
    EXPECT_EQ(faulty->injector().injected(), 1u);
    EXPECT_TRUE(stats.audited);
    EXPECT_GT(stats.auditChecks, 0u);
    EXPECT_EQ(stats.auditViolations, 0u)
        << stats.auditFindings.front().invariant << ": "
        << stats.auditFindings.front().message;
}

// --- GMMU invariants under targeted faults -------------------------

/** Gmmu + real page tables, driven directly (no IOMMU in the way), so
 *  each Gmmu::TestFaults knob can break exactly one invariant. */
struct GmmuAuditHarness
{
    explicit GmmuAuditHarness(vm::Gmmu::TestFaults faults = {})
        : frames(mem::Addr(1) << 30, false), gmmu(eq, [&] {
              vm::GmmuConfig cfg;
              cfg.enabled = true;
              cfg.faultLatency = 1'000;
              cfg.migrationLatency = 100;
              return cfg;
          }(), frames, store)
    {
        space = std::make_unique<vm::AddressSpace>(store, frames);
        space->setDemandPaging(true);
        gmmu.registerSpace(0, *space);
        gmmu.setTestFaults(faults);
        gmmu.setPinCounts(pins);
        gmmu.registerInvariants(auditor);
        region = space->allocate("buf", 64 * mem::pageSize);
    }

    mem::Addr
    pageAt(unsigned i) const
    {
        return region.base + mem::Addr(i) * mem::pageSize;
    }

    sim::EventQueue eq;
    mem::BackingStore store;
    vm::FrameAllocator frames;
    std::unique_ptr<vm::AddressSpace> space;
    vm::VaRegion region;
    Auditor auditor;
    vm::Gmmu gmmu;
    /** Stands in for the IOMMU's in-flight walk count. */
    vm::Gmmu::PinCounts pins;
};

TEST(GmmuAuditFault, CleanFaultingRunsAuditClean)
{
    GmmuAuditHarness h;
    h.gmmu.setFrameCap(2); // churn through eviction too
    for (unsigned i = 0; i < 6; ++i) {
        h.gmmu.raiseFault(0, h.pageAt(i));
        drain(h.eq);
        h.auditor.check(AuditPhase::Periodic, h.eq.now());
    }
    h.auditor.check(AuditPhase::Final, h.eq.now());
    EXPECT_TRUE(h.auditor.clean())
        << h.auditor.violations().front().invariant << ": "
        << h.auditor.violations().front().message;
    EXPECT_GT(h.gmmu.pagesEvicted(), 0u);
}

TEST(GmmuAuditFault, DroppedServiceFiresFaultConservation)
{
    // The service completion is lost: the page lands in a frame but
    // the fault is never acknowledged. raised != serviced + pending.
    GmmuAuditHarness h({.dropFirstService = true});
    h.gmmu.raiseFault(0, h.pageAt(0));
    drain(h.eq);

    h.auditor.check(AuditPhase::Final, h.eq.now());
    EXPECT_FALSE(h.auditor.clean());
    EXPECT_TRUE(hasViolation(h.auditor.violations(),
                             "gmmu.fault_conservation"));
    EXPECT_EQ(h.gmmu.faultsRaised(), 1u);
    EXPECT_EQ(h.gmmu.faultsServiced(), 0u);
    EXPECT_EQ(h.gmmu.pendingFaults(), 0u);
}

TEST(GmmuAuditFault, LeakedFrameFiresFrameAccounting)
{
    // Eviction forgets the frame bookkeeping: the residency counter,
    // the LRU structures and the free list fall out of agreement.
    GmmuAuditHarness h({.leakFrameOnEvict = true});
    h.gmmu.setFrameCap(1);
    h.gmmu.raiseFault(0, h.pageAt(0));
    drain(h.eq);
    h.gmmu.raiseFault(0, h.pageAt(1)); // evicts page 0, leaks its frame
    drain(h.eq);

    h.auditor.check(AuditPhase::Final, h.eq.now());
    EXPECT_FALSE(h.auditor.clean());
    EXPECT_TRUE(hasViolation(h.auditor.violations(),
                             "gmmu.frame_accounting"));
}

TEST(GmmuAuditFault, LoweredCapFiresResidencyCap)
{
    // Three pages resident, then the cap drops to one: nothing evicts
    // until the next fault, so the resident set exceeds the cap.
    GmmuAuditHarness h;
    for (unsigned i = 0; i < 3; ++i)
        h.gmmu.raiseFault(0, h.pageAt(i));
    drain(h.eq);
    ASSERT_EQ(h.gmmu.residentPages(), 3u);
    h.gmmu.setFrameCap(1);

    h.auditor.check(AuditPhase::Final, h.eq.now());
    EXPECT_TRUE(hasViolation(h.auditor.violations(),
                             "gmmu.residency_cap"));
}

TEST(GmmuAuditFault, PrematurePinnedEvictionFiresNoPinnedEviction)
{
    // The victim picker prefers a page a walk still holds pinned —
    // the exact corruption pin-at-enqueue exists to prevent.
    GmmuAuditHarness h({.evictPinned = true});
    h.gmmu.setFrameCap(1);
    h.gmmu.raiseFault(0, h.pageAt(0));
    drain(h.eq);
    h.pins[mem::pageCtxKey(0, h.pageAt(0))] = 1;
    h.gmmu.raiseFault(0, h.pageAt(1)); // must evict, only victim pinned
    drain(h.eq);
    h.pins.clear();

    h.auditor.check(AuditPhase::Final, h.eq.now());
    EXPECT_FALSE(h.auditor.clean());
    EXPECT_TRUE(hasViolation(h.auditor.violations(),
                             "gmmu.no_pinned_eviction"));
}

TEST(SystemAuditFault, FullRunWithPeriodicChecksAuditsClean)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::SimtAware;
    cfg.audit.enabled = true;
    cfg.audit.interval = 100'000;
    const auto sys = exp::build({cfg, {{"MVT", tinySystemParams()}}});
    const auto stats = sys->run();

    EXPECT_TRUE(stats.audited);
    EXPECT_GT(stats.auditChecks,
              sys->auditor()->invariantCount()); // periodic checks ran
    EXPECT_EQ(stats.auditViolations, 0u)
        << stats.auditFindings.front().invariant << ": "
        << stats.auditFindings.front().message;
}

} // namespace

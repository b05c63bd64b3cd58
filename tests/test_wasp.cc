/**
 * @file
 * Wasp de-staggered wavefront scheduling tests: behaviour of the
 * leader class and the speculative walk class end to end, plus the
 * determinism checks the feature must survive — bit-identical trace
 * digests and stats JSON across repeated and concurrent same-process
 * runs, with the conservation auditor (the
 * iommu.spec_class identity included) on throughout, across wasp x
 * {prefetch off, spp} x {resident, oversubscribed} x admission
 * {idle, reserved, budget}.
 *
 * The behavioural claims under test:
 *
 *  - leader wavefronts issue first and their walks arrive tagged, ride
 *    the speculative class, and never vanish: every admitted entry is
 *    dispatched, promoted, or (predictions only) cancelled;
 *  - with Wasp off the speculative machinery is structurally inert
 *    (zero admissions, zero leader issues) under every admission mode,
 *    so the committed golden digests cannot move;
 *  - reserved admission keeps dispatching speculatively under load,
 *    budget admission meters it, and faulted leader walks re-enter
 *    and complete (audit holds oversubscribed);
 *  - leader streams train the shared SPP pattern table (the
 *    leader-to-follower transfer satellite).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "exp/report.hh"
#include "iommu/prefetch/spp_prefetcher.hh"
#include "system/system.hh"
#include "workload/workload.hh"

namespace {

using namespace gpuwalk;

/** One wasp configuration point for the differentials. */
struct WaspPoint
{
    std::string key;
    std::string workload;
    iommu::PrefetchKind prefetch;
    iommu::SpecAdmission admission;
    bool oversubscribed = false;
};

const std::vector<WaspPoint> waspPoints{
    {"wasp/xsb-off-idle", "XSB", iommu::PrefetchKind::Off,
     iommu::SpecAdmission::Idle},
    {"wasp/mvt-spp-reserved", "MVT", iommu::PrefetchKind::Spp,
     iommu::SpecAdmission::Reserved},
    {"wasp/atx-spp-budget", "ATX", iommu::PrefetchKind::Spp,
     iommu::SpecAdmission::Budget},
    {"wasp/gev-spp-reserved-oversub", "GEV", iommu::PrefetchKind::Spp,
     iommu::SpecAdmission::Reserved, /*oversubscribed=*/true},
};

struct WaspRun
{
    system::RunStats stats;
    std::string statsJson;
};

system::SystemConfig
waspConfig(const WaspPoint &point)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::SimtAware;
    cfg.trace.enabled = true;
    cfg.audit.enabled = true;
    cfg.audit.interval = 100'000;
    cfg.gpu.wavefrontSched = gpu::WavefrontSchedPolicy::Wasp;
    cfg.iommu.prefetch.kind = point.prefetch;
    cfg.iommu.specAdmission = point.admission;
    if (point.oversubscribed) {
        cfg.gmmu.enabled = true;
        cfg.gmmu.oversubscription = 0.25;
        cfg.gmmu.faultLatency = 20'000;
        cfg.gmmu.migrationLatency = 1'000;
    }
    return cfg;
}

WaspRun
runPoint(const WaspPoint &point)
{
    workload::WorkloadParams params;
    params.wavefronts = 16;
    params.instructionsPerWavefront = 8;
    params.footprintScale = 0.02;
    params.seed = 31;

    system::System sys(waspConfig(point));
    sys.loadBenchmark(point.workload, params);

    WaspRun out;
    out.stats = sys.run();
    out.statsJson = exp::statsJsonString(out.stats);
    return out;
}

/** The class-conservation identity the auditor enforces mid-run, now
 *  checked from the summary: nothing admitted is unaccounted for. */
void
expectSpecAccounted(const iommu::SpecSummary &spec,
                    const std::string &key)
{
    EXPECT_EQ(spec.admitted,
              spec.dispatched + spec.promoted + spec.droppedStale)
        << key;
}

// ---------------------------------------------------------------------
// Behaviour.
// ---------------------------------------------------------------------

TEST(WaspBehavior, LeadersIssueAndTheirWalksRideTheSpecClass)
{
    const auto run = runPoint(waspPoints[1]); // spp + reserved
    ASSERT_TRUE(run.stats.audited);
    EXPECT_EQ(run.stats.auditViolations, 0u);
    EXPECT_GT(run.stats.leaderIssues, 0u);
    EXPECT_GT(run.stats.spec.leaderWalks, 0u);
    EXPECT_GT(run.stats.spec.admitted, 0u);
    // Reserved walkers exist solely to drain the class: speculative
    // dispatches must actually happen under demand load.
    EXPECT_GT(run.stats.spec.dispatched, 0u);
    expectSpecAccounted(run.stats.spec, waspPoints[1].key);
}

TEST(WaspBehavior, FeatureOffLeavesSpecMachineryInert)
{
    // Round-robin (the default) + every admission mode: no leader
    // issues, no admissions — the speculative class cannot influence a
    // non-wasp run, which is what keeps the committed goldens valid.
    for (const auto admission :
         {iommu::SpecAdmission::Idle, iommu::SpecAdmission::Reserved,
          iommu::SpecAdmission::Budget}) {
        auto point = waspPoints[0];
        point.admission = admission;
        auto cfg = waspConfig(point);
        cfg.gpu.wavefrontSched = gpu::WavefrontSchedPolicy::RoundRobin;

        workload::WorkloadParams params;
        params.wavefronts = 16;
        params.instructionsPerWavefront = 8;
        params.footprintScale = 0.02;
        params.seed = 31;
        system::System sys(cfg);
        sys.loadBenchmark(point.workload, params);
        const auto stats = sys.run();

        EXPECT_EQ(stats.auditViolations, 0u);
        EXPECT_EQ(stats.leaderIssues, 0u);
        EXPECT_EQ(stats.spec.leaderWalks, 0u);
        EXPECT_EQ(stats.spec.admitted, 0u);
        EXPECT_EQ(stats.spec.dispatched, 0u);
    }
}

TEST(WaspBehavior, BudgetAdmissionMetersPredictions)
{
    const auto budget = runPoint(waspPoints[2]); // spp + budget
    EXPECT_EQ(budget.stats.auditViolations, 0u);
    EXPECT_GT(budget.stats.spec.admitted, 0u);
    expectSpecAccounted(budget.stats.spec, waspPoints[2].key);

    // The meter's construction bound: predictions spend tokens, the
    // token pool refills (to specBudgetTokens, not by it) once per
    // specBudgetWindow demand dispatches, and leader walks bypass the
    // meter — they are real requests. totalWalks over-counts demand
    // dispatches, so it bounds the number of refills from above.
    const auto cfg = waspConfig(waspPoints[2]);
    const std::uint64_t refills =
        budget.stats.walks.totalWalks / cfg.iommu.specBudgetWindow;
    EXPECT_LE(budget.stats.spec.admitted,
              budget.stats.spec.leaderWalks
                  + cfg.iommu.specBudgetTokens * (refills + 1));

    // Zero tokens close the meter completely: only leader-originated
    // walks may enter the speculative class.
    auto starved_cfg = waspConfig(waspPoints[2]);
    starved_cfg.iommu.specBudgetTokens = 0;
    workload::WorkloadParams params;
    params.wavefronts = 16;
    params.instructionsPerWavefront = 8;
    params.footprintScale = 0.02;
    params.seed = 31;
    system::System sys(starved_cfg);
    sys.loadBenchmark(waspPoints[2].workload, params);
    const auto starved = sys.run();
    EXPECT_EQ(starved.auditViolations, 0u);
    EXPECT_LE(starved.spec.admitted, starved.spec.leaderWalks);
    expectSpecAccounted(starved.spec, "wasp/atx-spp-budget-0tok");
}

TEST(WaspBehavior, FaultedLeaderWalksCompleteOversubscribed)
{
    const auto run = runPoint(waspPoints[3]);
    ASSERT_TRUE(run.stats.gmmu.enabled);
    ASSERT_GT(run.stats.gmmu.faultsRaised, 0u);
    EXPECT_EQ(run.stats.auditViolations, 0u);
    EXPECT_GT(run.stats.spec.leaderWalks, 0u);
    expectSpecAccounted(run.stats.spec, waspPoints[3].key);
}

TEST(WaspBehavior, LeaderStreamsTrainTheSharedSppTable)
{
    // Unit-level transfer check: a leader stream strides ahead; the
    // follower with a *different* wavefront id starts over the same
    // pages later. The shared signature-indexed pattern table means
    // the follower's very first delta already has a trained entry —
    // its second touch predicts, where an untrained table needs the
    // signature to converge first.
    iommu::SppPrefetcher spp{iommu::PrefetchConfig{}};
    std::vector<iommu::PrefetchCandidate> out;
    const std::uint64_t base = 0x40000;

    for (std::uint64_t i = 0; i < 16; ++i) {
        out.clear();
        spp.onDemandTouch(/*ctx=*/0, /*wavefront=*/0,
                          (base + i) << mem::pageShift, out,
                          /*leader=*/true);
    }
    EXPECT_GT(spp.leaderTrainedDeltas(), 0u);
    EXPECT_EQ(spp.leaderTrainedDeltas(), spp.trainedDeltas());

    // Follower touches: trained-delta counters split by class.
    const std::uint64_t before = spp.leaderTrainedDeltas();
    out.clear();
    spp.onDemandTouch(0, /*wavefront=*/1, base << mem::pageShift, out);
    out.clear();
    spp.onDemandTouch(0, /*wavefront=*/1, (base + 1) << mem::pageShift,
                      out);
    EXPECT_EQ(spp.leaderTrainedDeltas(), before);
    EXPECT_GT(spp.trainedDeltas(), before);
    // The follower's stride-1 delta was leader-trained: predictions
    // flow on the second touch already.
    EXPECT_FALSE(out.empty());
}

TEST(WaspBehavior, SppLeaderTrainingStaysAsidIsolated)
{
    // Cross-ASID isolation under Wasp: a leader stream in ctx 1 and a
    // follower stream with the *same wavefront id* in ctx 2 are
    // distinct streams — interleaving them corrupts neither, and each
    // predicts its own next pages.
    iommu::SppPrefetcher spp{iommu::PrefetchConfig{}};
    const std::uint64_t a = 0x40000, b = 0x90000;
    std::vector<iommu::PrefetchCandidate> wa, wb;
    for (std::uint64_t i = 0; i < 16; ++i) {
        wa.clear();
        spp.onDemandTouch(/*ctx=*/1, /*wavefront=*/7,
                          (a + i) << mem::pageShift, wa,
                          /*leader=*/true);
        wb.clear();
        spp.onDemandTouch(/*ctx=*/2, /*wavefront=*/7,
                          (b + 2 * i) << mem::pageShift, wb);
    }
    ASSERT_FALSE(wa.empty());
    ASSERT_FALSE(wb.empty());
    EXPECT_EQ(wa[0].vaPage, (a + 15 + 1) << mem::pageShift);
    EXPECT_EQ(wb[0].vaPage, (b + 30 + 2) << mem::pageShift);
    EXPECT_EQ(spp.streamResets(), 0u);
}

// ---------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------

TEST(WaspDeterminism, BitIdenticalAcrossRepeatRuns)
{
    for (const auto &point : waspPoints) {
        const auto first = runPoint(point);
        ASSERT_TRUE(first.stats.traced);
        ASSERT_NE(first.stats.traceDigest, 0u);
        ASSERT_EQ(first.stats.traceDropped, 0u);
        ASSERT_TRUE(first.stats.audited);
        EXPECT_EQ(first.stats.auditViolations, 0u) << point.key;
        ASSERT_GT(first.stats.leaderIssues, 0u) << point.key;
        expectSpecAccounted(first.stats.spec, point.key);

        const auto repeat = runPoint(point);
        EXPECT_EQ(repeat.stats.traceDigest, first.stats.traceDigest)
            << point.key;
        EXPECT_EQ(repeat.statsJson, first.statsJson) << point.key;
    }
}

TEST(WaspDeterminism, BitIdenticalAcrossConcurrentRuns)
{
    // The --jobs axis: two wasp Systems in the same process at once
    // share nothing but the heap.
    const auto &point = waspPoints[1]; // spp + reserved
    const auto reference = runPoint(point);

    std::vector<WaspRun> concurrent(2);
    {
        std::thread a([&] { concurrent[0] = runPoint(point); });
        std::thread b([&] { concurrent[1] = runPoint(point); });
        a.join();
        b.join();
    }
    for (const auto &run : concurrent) {
        EXPECT_EQ(run.stats.traceDigest, reference.stats.traceDigest);
        EXPECT_EQ(run.statsJson, reference.statsJson);
        EXPECT_EQ(run.stats.auditViolations, 0u);
    }
}

} // namespace

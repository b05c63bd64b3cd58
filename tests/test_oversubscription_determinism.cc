/**
 * @file
 * Demand-paging determinism differential tests and faulting-run golden
 * digests.
 *
 * Far faults carry the longest-lived state of any run: a walk parks
 * at the IOMMU, the GMMU batches and services it tens of thousands of
 * ticks later, and the re-entered walk re-arbitrates against fresh
 * traffic. These tests run reference oversubscribed points twice in a
 * row and as concurrent same-process runs (the --jobs axis),
 * demanding byte-identical trace digests and stats JSON with the
 * conservation auditor (GMMU invariants included) on throughout. A randomized sweep then fuzzes the config cross-product
 * the fixed points cannot cover. Two faulting reference points are
 * pinned in tests/golden/digests.json next to the scheduler-grid and
 * tenant entries.
 *
 * Regenerating the faulting goldens (after an intentional behaviour
 * change; the merge-write preserves every other key):
 *
 *     GPUWALK_UPDATE_GOLDEN=1 build/tests/gpuwalk_tests \
 *         --gtest_filter='OversubGolden.*'
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exp/report.hh"
#include "golden_store.hh"
#include "sim/rng.hh"
#include "system/system.hh"
#include "trace/digest.hh"
#include "workload/workload.hh"

namespace {

using namespace gpuwalk;
using gpuwalk::testing::GoldenEntry;

/** A reference oversubscribed point: workload, scheduler, GMMU knobs. */
struct OversubPoint
{
    std::string key; ///< golden-store key, e.g. "oversub/mvt-fcfs-1.00"
    std::string workload;
    core::SchedulerKind scheduler;
    double ratio;
    vm::FaultOrder order;
    vm::EvictPolicy evict;
};

/**
 * The two committed reference points. The 1.0 point isolates
 * cold-start fault-in (no eviction is possible); the tight point runs
 * far below the touched working set, so pages churn through
 * evict/re-fault cycles for the whole run.
 */
const std::vector<OversubPoint> referencePoints{
    {"oversub/mvt-fcfs-1.00", "MVT", core::SchedulerKind::Fcfs, 1.0,
     vm::FaultOrder::Fcfs, vm::EvictPolicy::Lru},
    {"oversub/gev-simt-tight", "GEV", core::SchedulerKind::SimtAware,
     0.04, vm::FaultOrder::Sjf, vm::EvictPolicy::Random},
};

struct OversubRun
{
    system::RunStats stats;
    std::string statsJson;
};

OversubRun
runPoint(const OversubPoint &point)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = point.scheduler;
    cfg.trace.enabled = true;
    cfg.audit.enabled = true;
    cfg.audit.interval = 100'000;
    cfg.gmmu.enabled = true;
    cfg.gmmu.oversubscription = point.ratio;
    cfg.gmmu.order = point.order;
    cfg.gmmu.evict = point.evict;
    // Shrunk latencies: the determinism property is about event
    // ordering, not about simulating a realistic host round trip, and
    // smaller waits keep the differential runs quick.
    cfg.gmmu.faultLatency = 20'000;
    cfg.gmmu.migrationLatency = 1'000;
    cfg.gmmu.batchSize = 8;

    workload::WorkloadParams params;
    params.wavefronts = 8;
    params.instructionsPerWavefront = 6;
    params.footprintScale = 0.02;
    params.seed = 23;

    system::System sys(cfg);
    sys.loadBenchmark(point.workload, params);

    OversubRun out;
    out.stats = sys.run();
    out.statsJson = exp::statsJsonString(out.stats);
    return out;
}

GoldenEntry
toEntry(const system::RunStats &stats)
{
    GoldenEntry e;
    e.digest = trace::digestHex(stats.traceDigest);
    e.runtimeTicks = stats.runtimeTicks;
    e.instructions = stats.instructions;
    e.translationRequests = stats.translationRequests;
    e.walkRequests = stats.walkRequests;
    e.walksCompleted = stats.walksCompleted;
    e.traceEvents = stats.traceEvents;
    return e;
}

TEST(OversubDeterminism, BitIdenticalAcrossRepeatRuns)
{
    for (const auto &point : referencePoints) {
        const auto first = runPoint(point);
        ASSERT_TRUE(first.stats.traced);
        ASSERT_NE(first.stats.traceDigest, 0u);
        ASSERT_EQ(first.stats.traceDropped, 0u);
        ASSERT_TRUE(first.stats.audited);
        EXPECT_EQ(first.stats.auditViolations, 0u) << point.key;
        // The point must actually fault (and, when tight, evict) or
        // the differential proves nothing.
        ASSERT_TRUE(first.stats.gmmu.enabled);
        ASSERT_GT(first.stats.gmmu.faultsRaised, 0u) << point.key;
        if (point.ratio < 1.0) {
            ASSERT_GT(first.stats.gmmu.pagesEvicted, 0u)
                << point.key << ": cap never bound; tighten the ratio";
        } else {
            EXPECT_EQ(first.stats.gmmu.pagesEvicted, 0u) << point.key;
        }

        const auto repeat = runPoint(point);
        EXPECT_EQ(repeat.stats.traceDigest, first.stats.traceDigest)
            << point.key;
        EXPECT_EQ(repeat.statsJson, first.statsJson) << point.key;
    }
}

TEST(OversubDeterminism, BitIdenticalAcrossConcurrentRuns)
{
    // The --jobs axis: two faulting Systems in the same process at
    // once share nothing but the heap.
    const auto &point = referencePoints.back(); // the evicting point
    const auto reference = runPoint(point);

    std::vector<OversubRun> concurrent(2);
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

TEST(OversubDeterminism, RandomizedConfigsStayBitIdentical)
{
    // Fuzz the corner of the config cross-product the fixed points
    // miss: random workload/scheduler/ratio/order/evict/seed, run
    // twice, auditor on.
    const std::vector<std::string> apps{"MVT", "GEV", "KMN", "ATX"};
    const std::vector<core::SchedulerKind> scheds{
        core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware,
        core::SchedulerKind::OldestJob};
    sim::Rng rng(20260807);

    for (int trial = 0; trial < 3; ++trial) {
        OversubPoint point;
        point.key = "fuzz-trial-" + std::to_string(trial);
        point.workload = apps[rng.below(apps.size())];
        point.scheduler = scheds[rng.below(scheds.size())];
        point.ratio = rng.below(2) == 0
                          ? 1.0
                          : 0.03 + 0.01 * static_cast<double>(
                                rng.below(5));
        point.order = rng.below(2) == 0 ? vm::FaultOrder::Fcfs
                                        : vm::FaultOrder::Sjf;
        point.evict = rng.below(2) == 0 ? vm::EvictPolicy::Lru
                                        : vm::EvictPolicy::Random;

        const auto first = runPoint(point);
        ASSERT_GT(first.stats.gmmu.faultsRaised, 0u);
        EXPECT_EQ(first.stats.auditViolations, 0u)
            << point.key << " " << point.workload;

        const auto repeat = runPoint(point);
        EXPECT_EQ(repeat.stats.traceDigest, first.stats.traceDigest)
            << point.key << ": " << point.workload << "/"
            << core::toString(point.scheduler) << " ratio "
            << point.ratio;
        EXPECT_EQ(repeat.statsJson, first.statsJson) << point.key;
    }
}

TEST(OversubGolden, FaultingRunsMatchCommittedDigests)
{
    std::map<std::string, GoldenEntry> computed;
    for (const auto &point : referencePoints)
        computed[point.key] = toEntry(runPoint(point).stats);

    if (gpuwalk::testing::updateRequested()) {
        ASSERT_TRUE(gpuwalk::testing::writeGoldensMerged(computed))
            << "cannot write " << gpuwalk::testing::goldenPath();
        GTEST_SKIP() << "oversubscription goldens rewritten at "
                     << gpuwalk::testing::goldenPath();
    }

    GPUWALK_EXPECT_GOLDENS_MATCH(computed);
}

} // namespace

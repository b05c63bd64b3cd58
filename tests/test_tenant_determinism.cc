/**
 * @file
 * Multi-tenant determinism differential tests and tenant golden
 * digests.
 *
 * Tenant churn (mid-run arrivals) plus ASID-tagged shared caches is
 * the most state a run carries. These tests run reference tenant
 * mixes under both QoS schedulers twice in a row and as concurrent
 * same-process runs (the --jobs axis), demanding byte-identical trace
 * digests and stats JSON, with the conservation auditor on
 * throughout. The 2- and
 * 8-tenant reference points are pinned as committed goldens in
 * tests/golden/digests.json next to the scheduler-grid entries.
 *
 * Regenerating the tenant goldens (after an intentional behaviour
 * change; the merge-write preserves the scheduler-grid keys):
 *
 *     GPUWALK_UPDATE_GOLDEN=1 build/tests/gpuwalk_tests \
 *         --gtest_filter='TenantGolden.*'
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exp/report.hh"
#include "golden_store.hh"
#include "system/system.hh"
#include "trace/digest.hh"
#include "workload/tenant_mix.hh"

namespace {

using namespace gpuwalk;
using gpuwalk::testing::GoldenEntry;

/** A reference multi-tenant point: tenant count, churn, policy. */
struct MixPoint
{
    std::string key; ///< golden-store key, e.g. "tenant8/weighted-share"
    unsigned tenants;
    core::SchedulerKind scheduler;
    double churnFraction;
    bool alternateWeights;
};

/** The two committed reference points. Churn is active in both: the
 *  2-tenant point has one late arrival, the 8-tenant point two. */
const std::vector<MixPoint> referencePoints{
    {"tenant2/token-bucket", 2, core::SchedulerKind::TokenBucket, 0.5,
     false},
    {"tenant8/weighted-share", 8, core::SchedulerKind::WeightedShare,
     0.25, true},
};

struct MixRun
{
    system::RunStats stats;
    std::string statsJson;
};

MixRun
runMix(const MixPoint &point)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = point.scheduler;
    cfg.trace.enabled = true;
    cfg.audit.enabled = true;
    cfg.audit.interval = 100'000;

    workload::TenantMixConfig mix;
    mix.numTenants = point.tenants;
    mix.seed = 17;
    mix.wavefrontsPerTenant = 8;
    mix.instructionsPerWavefront = 6;
    mix.footprintScaleMin = 0.02;
    mix.footprintScaleMax = 0.06;
    mix.churnFraction = point.churnFraction;
    mix.churnWindowTicks = 200'000;
    mix.alternateWeights = point.alternateWeights;
    const auto specs = workload::generateTenantMix(mix);

    // Tenant i receives ContextId i below, so spec weights map
    // directly onto the per-ContextId weight table.
    for (unsigned i = 0; i < specs.size(); ++i) {
        if (specs[i].weight > 1) {
            cfg.qos.shareWeights.resize(specs.size(), 1);
            cfg.qos.shareWeights[i] = specs[i].weight;
        }
    }

    system::System sys(cfg);
    for (unsigned i = 0; i < specs.size(); ++i) {
        const auto ctx =
            i == 0 ? tlb::defaultContext : sys.createContext();
        GPUWALK_ASSERT(ctx == i, "context ids must be dense");
        sys.loadBenchmarkInContext(specs[i].workload, specs[i].params,
                                   /*app_id=*/i, ctx,
                                   specs[i].arrivalTick);
    }

    MixRun out;
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

TEST(TenantDeterminism, BitIdenticalAcrossRepeatRuns)
{
    for (const auto &point : referencePoints) {
        const auto first = runMix(point);
        ASSERT_TRUE(first.stats.traced);
        ASSERT_NE(first.stats.traceDigest, 0u);
        ASSERT_EQ(first.stats.traceDropped, 0u);
        ASSERT_TRUE(first.stats.audited);
        EXPECT_EQ(first.stats.auditViolations, 0u) << point.key;
        ASSERT_EQ(first.stats.tenants.size(), point.tenants)
            << point.key;

        const auto second = runMix(point);
        EXPECT_EQ(second.stats.traceDigest, first.stats.traceDigest)
            << point.key;
        // The whole stats JSON — tenant accounting, events executed
        // and audit checks included — is byte-identical, not just the
        // digest.
        EXPECT_EQ(second.statsJson, first.statsJson) << point.key;
    }
}

TEST(TenantDeterminism, BitIdenticalAcrossConcurrentRuns)
{
    // The --jobs axis: two Systems simulating the same point in the
    // same process at once must not interfere.
    const auto &point = referencePoints.front();
    const auto reference = runMix(point);

    std::vector<MixRun> concurrent(2);
    {
        std::thread a([&] { concurrent[0] = runMix(point); });
        std::thread b([&] { concurrent[1] = runMix(point); });
        a.join();
        b.join();
    }
    for (const auto &run : concurrent) {
        EXPECT_EQ(run.stats.traceDigest, reference.stats.traceDigest);
        EXPECT_EQ(run.statsJson, reference.statsJson);
        EXPECT_EQ(run.stats.auditViolations, 0u);
    }
}

TEST(TenantGolden, ReferenceMixesMatchCommittedDigests)
{
    std::map<std::string, GoldenEntry> computed;
    for (const auto &point : referencePoints)
        computed[point.key] = toEntry(runMix(point).stats);

    if (gpuwalk::testing::updateRequested()) {
        ASSERT_TRUE(gpuwalk::testing::writeGoldensMerged(computed))
            << "cannot write " << gpuwalk::testing::goldenPath();
        GTEST_SKIP() << "tenant goldens rewritten at "
                     << gpuwalk::testing::goldenPath();
    }

    GPUWALK_EXPECT_GOLDENS_MATCH(computed);
}

} // namespace

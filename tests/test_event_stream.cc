/**
 * @file
 * Pins the simulated event stream of two reference runs: the exact
 * number of events executed and the kernel runtime.
 *
 * Host-speed work on the hot path (how requests travel, how pooled
 * events store their captures) must not add, remove or reorder a
 * single event. A changed count or runtime here means the simulated
 * behaviour moved.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "exp/run.hh"
#include "system/system.hh"
#include "workload/tenant_mix.hh"

namespace {

using namespace gpuwalk;

struct Pinned
{
    std::uint64_t events;
    sim::Tick runtimeTicks;
};

void
expectPinned(const system::RunStats &stats, Pinned want)
{
    EXPECT_EQ(stats.eventsExecuted, want.events);
    EXPECT_EQ(stats.runtimeTicks, want.runtimeTicks);
    EXPECT_TRUE(stats.audited);
    EXPECT_EQ(stats.auditViolations, 0u);
}

system::RunStats
runXsb(core::SchedulerKind kind)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = kind;
    cfg.audit.enabled = true;
    workload::WorkloadParams params;
    params.wavefronts = 64;
    params.instructionsPerWavefront = 12;
    params.seed = 42;
    return exp::run({cfg, {{"XSB", params}}});
}

TEST(EventStream, XsbFcfsMatchesPinnedCounts)
{
    expectPinned(runXsb(core::SchedulerKind::Fcfs), {114'375, 45'200'000});
}

TEST(EventStream, XsbSimtAwareMatchesPinnedCounts)
{
    expectPinned(runXsb(core::SchedulerKind::SimtAware),
                 {113'281, 44'472'500});
}

TEST(EventStream, TenantPagingMixMatchesPinnedCounts)
{
    // Four weighted-share tenants, two of them arriving mid-run, with
    // demand paging at 0.25 oversubscription and SPP prefetch: the
    // fault, eviction, prefetch and arrival paths all run.
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::WeightedShare;
    cfg.audit.enabled = true;
    cfg.gmmu.enabled = true;
    cfg.gmmu.oversubscription = 0.25;
    cfg.iommu.prefetch.kind = iommu::PrefetchKind::Spp;

    workload::TenantMixConfig mix;
    mix.numTenants = 4;
    mix.seed = 42;
    mix.wavefrontsPerTenant = 16;
    mix.instructionsPerWavefront = 8;
    mix.churnFraction = 0.5;
    mix.alternateWeights = true;
    const auto stats = exp::run(
        {cfg, exp::tenantLoads(workload::generateTenantMix(mix))});
    ASSERT_TRUE(stats.gmmu.enabled);
    EXPECT_GT(stats.gmmu.pagesEvicted, 0u);
    EXPECT_GT(stats.prefetch.issued, 0u);
    expectPinned(stats, {80'841, 1'198'377'750});
}

} // namespace

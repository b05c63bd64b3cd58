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
runXsb(system::System &sys)
{
    workload::WorkloadParams params;
    params.wavefronts = 64;
    params.instructionsPerWavefront = 12;
    params.seed = 42;
    sys.loadBenchmark("XSB", params);
    return sys.run();
}

TEST(EventStream, XsbFcfsMatchesPinnedCounts)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::Fcfs;
    cfg.audit.enabled = true;
    system::System sys(cfg);
    const auto stats = runXsb(sys);
    expectPinned(stats, {114'375, 45'200'000});
}

TEST(EventStream, XsbSimtAwareMatchesPinnedCounts)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::SimtAware;
    cfg.audit.enabled = true;
    system::System sys(cfg);
    const auto stats = runXsb(sys);
    expectPinned(stats, {113'281, 44'472'500});
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
    const auto specs = workload::generateTenantMix(mix);
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
        sys.loadBenchmarkInContext(specs[i].workload, specs[i].params,
                                   /*app_id=*/i, ctx,
                                   specs[i].arrivalTick);
    }
    const auto stats = sys.run();
    ASSERT_TRUE(stats.gmmu.enabled);
    EXPECT_GT(stats.gmmu.pagesEvicted, 0u);
    EXPECT_GT(stats.prefetch.issued, 0u);
    expectPinned(stats, {80'841, 1'198'377'750});
}

} // namespace

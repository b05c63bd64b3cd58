/**
 * @file
 * Property-style tests: invariants that must hold for every scheduler,
 * every workload, and across configuration sweeps (parameterized with
 * TEST_P / INSTANTIATE_TEST_SUITE_P).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/simt_aware_scheduler.hh"
#include "exp/metrics.hh"
#include "system/system.hh"
#include "workload/registry.hh"

namespace {

using namespace gpuwalk;

workload::WorkloadParams
tinyParams(std::uint64_t seed = 3)
{
    workload::WorkloadParams p;
    p.wavefronts = 24;
    p.instructionsPerWavefront = 10;
    p.footprintScale = 0.03;
    p.seed = seed;
    return p;
}

/** (scheduler, workload) product: completion + conservation laws. */
class SchedulerWorkloadProperty
    : public ::testing::TestWithParam<
          std::tuple<core::SchedulerKind, std::string>>
{
};

TEST_P(SchedulerWorkloadProperty, CompletesAndConserves)
{
    const auto [kind, workload] = GetParam();
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = kind;
    system::System sys(cfg);
    sys.loadBenchmark(workload, tinyParams());
    const auto stats = sys.run();

    // Everything issued retires.
    EXPECT_EQ(stats.instructions, 24u * 10u);
    // Every walk that was requested completed; nothing in flight.
    EXPECT_EQ(stats.walkRequests, stats.walksCompleted);
    EXPECT_EQ(sys.iommu().inflightWalks(), 0u);
    // Walk accounting in the metrics matches the IOMMU counters.
    EXPECT_EQ(stats.walks.totalWalks, stats.walksCompleted);
    // Memory accesses per walk are within the x86-64 bounds.
    if (stats.walks.totalWalks > 0) {
        EXPECT_GE(stats.walks.totalMemAccesses, stats.walks.totalWalks);
        EXPECT_LE(stats.walks.totalMemAccesses,
                  4 * stats.walks.totalWalks);
    }
    // Stall time cannot exceed CUs x runtime.
    EXPECT_LE(stats.stallTicks,
              stats.runtimeTicks * cfg.gpu.numCus);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulersTimesWorkloads, SchedulerWorkloadProperty,
    ::testing::Combine(
        ::testing::Values(core::SchedulerKind::Fcfs,
                          core::SchedulerKind::Random,
                          core::SchedulerKind::SjfOnly,
                          core::SchedulerKind::BatchOnly,
                          core::SchedulerKind::SimtAware),
        ::testing::Values("MVT", "XSB", "SSP", "KMN")),
    [](const auto &info) {
        std::string name = core::toString(std::get<0>(info.param))
                           + "_" + std::get<1>(info.param);
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

/** Determinism must hold for every scheduler. */
class DeterminismProperty
    : public ::testing::TestWithParam<core::SchedulerKind>
{
};

TEST_P(DeterminismProperty, IdenticalRunsIdenticalResults)
{
    auto run = [&] {
        auto cfg = system::SystemConfig::baseline();
        cfg.scheduler = GetParam();
        system::System sys(cfg);
        sys.loadBenchmark("ATX", tinyParams());
        return sys.run();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.stallTicks, b.stallTicks);
    EXPECT_EQ(a.walkRequests, b.walkRequests);
    EXPECT_EQ(a.walks.totalMemAccesses, b.walks.totalMemAccesses);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, DeterminismProperty,
    ::testing::Values(core::SchedulerKind::Fcfs,
                      core::SchedulerKind::Random,
                      core::SchedulerKind::SjfOnly,
                      core::SchedulerKind::BatchOnly,
                      core::SchedulerKind::SimtAware),
    [](const auto &info) {
        std::string name = core::toString(info.param);
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

/** Seeds change traces but never break invariants. */
class SeedProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedProperty, InvariantsHoldAcrossSeeds)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::SimtAware;
    system::System sys(cfg);
    sys.loadBenchmark("BIC", tinyParams(GetParam()));
    const auto stats = sys.run();
    EXPECT_EQ(stats.instructions, 24u * 10u);
    EXPECT_EQ(stats.walkRequests, stats.walksCompleted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedProperty,
                         ::testing::Values(1, 7, 42, 1234, 99999));

/** Walker-count sweep: more walkers never lose correctness and
 *  monotonically improve (or equal) FCFS runtime. */
class WalkerSweepProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(WalkerSweepProperty, CompletesWithAnyWalkerCount)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.iommu.numWalkers = GetParam();
    system::System sys(cfg);
    sys.loadBenchmark("MVT", tinyParams());
    const auto stats = sys.run();
    EXPECT_EQ(stats.walkRequests, stats.walksCompleted);
}

INSTANTIATE_TEST_SUITE_P(WalkerCounts, WalkerSweepProperty,
                         ::testing::Values(1, 2, 8, 16, 32));

/** Buffer-size sweep incl. pathological size 1. */
class BufferSweepProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BufferSweepProperty, CompletesWithAnyBufferSize)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.iommu.bufferEntries = GetParam();
    cfg.scheduler = core::SchedulerKind::SimtAware;
    system::System sys(cfg);
    sys.loadBenchmark("GEV", tinyParams());
    const auto stats = sys.run();
    EXPECT_EQ(stats.walkRequests, stats.walksCompleted);
}

INSTANTIATE_TEST_SUITE_P(BufferSizes, BufferSweepProperty,
                         ::testing::Values(1, 16, 128, 256, 512));

/** Aging property: with a tiny threshold, no starvation AND the
 *  override path is actually exercised. */
TEST(AgingProperty, TinyThresholdStillCompletes)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::SimtAware;
    cfg.simt.agingThreshold = 4;
    system::System sys(cfg);
    sys.loadBenchmark("MVT", tinyParams());
    const auto stats = sys.run();
    EXPECT_EQ(stats.walkRequests, stats.walksCompleted);
    auto *sched = dynamic_cast<core::SimtAwareScheduler *>(
        &sys.iommu().scheduler());
    ASSERT_NE(sched, nullptr);
    EXPECT_GT(sched->agingOverrides(), 0u);
}

/** PWC pinning on/off: pure policy change, correctness unaffected. */
TEST(PwcPinningProperty, OnOffBothComplete)
{
    for (bool pin : {true, false}) {
        auto cfg = system::SystemConfig::baseline();
        cfg.scheduler = core::SchedulerKind::SimtAware;
        cfg.iommu.pwc.pinScoredEntries = pin;
        system::System sys(cfg);
        sys.loadBenchmark("ATX", tinyParams());
        const auto stats = sys.run();
        EXPECT_EQ(stats.walkRequests, stats.walksCompleted);
    }
}

/**
 * Feature-matrix property: every combination of the config-gated
 * extension features must preserve the completion and conservation
 * invariants (features may interact; none may deadlock or leak
 * walks).
 */
class FeatureMatrixProperty
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>>
{
};

TEST_P(FeatureMatrixProperty, ExtensionsComposeSafely)
{
    const auto [large_pages, virtual_l1, prefetch] = GetParam();
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::SimtAware;
    cfg.gpu.virtualL1Cache = virtual_l1;
    cfg.iommu.prefetch.kind = prefetch ? iommu::PrefetchKind::Spp
                                       : iommu::PrefetchKind::Off;

    auto params = tinyParams();
    params.useLargePages = large_pages;

    system::System sys(cfg);
    sys.loadBenchmark("MVT", params);
    const auto stats = sys.run();
    EXPECT_EQ(stats.instructions, 24u * 10u);
    // Every demand walk completes; prefetch walks come on top.
    EXPECT_EQ(stats.walks.totalWalks, stats.walkRequests);
    EXPECT_GE(stats.walksCompleted, stats.walkRequests);
    // A final speculative prefetch may legitimately still be in
    // flight when the GPU retires its last instruction.
    if (!prefetch) {
        EXPECT_EQ(sys.iommu().inflightWalks(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, FeatureMatrixProperty,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto &info) {
        std::string name;
        name += std::get<0>(info.param) ? "lp1" : "lp0";
        name += std::get<1>(info.param) ? "_v1" : "_v0";
        name += std::get<2>(info.param) ? "_pf1" : "_pf0";
        return name;
    });

/** Geomean helper sanity. */
TEST(ExperimentMath, GeomeanAndSpeedup)
{
    EXPECT_DOUBLE_EQ(exp::geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(exp::geomean({1.0}), 1.0);
    system::RunStats fast, slow;
    fast.runtimeTicks = 100;
    slow.runtimeTicks = 150;
    EXPECT_DOUBLE_EQ(exp::speedup(fast, slow), 1.5);
    EXPECT_DOUBLE_EQ(exp::speedup(slow, fast),
                     100.0 / 150.0);
}

} // namespace

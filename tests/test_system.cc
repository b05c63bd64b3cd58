/**
 * @file
 * End-to-end integration tests: the full system running benchmark
 * workloads under every scheduler.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/run.hh"
#include "system/system.hh"
#include "workload/registry.hh"

namespace {

using namespace gpuwalk;

workload::WorkloadParams
smallParams()
{
    workload::WorkloadParams p;
    p.wavefronts = 32;
    p.instructionsPerWavefront = 12;
    p.footprintScale = 0.05;
    p.seed = 7;
    return p;
}

system::SystemConfig
smallConfig(core::SchedulerKind kind)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = kind;
    return cfg;
}

/** @p workload at smallParams() under @p kind, ready to run. */
exp::RunSpec
smallRun(core::SchedulerKind kind, const std::string &workload)
{
    return {smallConfig(kind), {{workload, smallParams()}}};
}

TEST(SystemIntegration, MvtRunsToCompletionUnderFcfs)
{
    const auto stats = exp::run(smallRun(core::SchedulerKind::Fcfs, "MVT"));

    EXPECT_GT(stats.runtimeTicks, 0u);
    EXPECT_EQ(stats.instructions, 32u * 12u);
    EXPECT_GT(stats.walkRequests, 0u);
    EXPECT_EQ(stats.walkRequests, stats.walksCompleted);
}

TEST(SystemIntegration, AllWalksDrainAtCompletion)
{
    const auto sys =
        exp::build(smallRun(core::SchedulerKind::SimtAware, "GEV"));
    sys->run();
    EXPECT_EQ(sys->iommu().inflightWalks(), 0u);
}

TEST(SystemIntegration, EverySchedulerCompletesEveryInstruction)
{
    for (auto kind :
         {core::SchedulerKind::Fcfs, core::SchedulerKind::Random,
          core::SchedulerKind::SjfOnly, core::SchedulerKind::BatchOnly,
          core::SchedulerKind::SimtAware}) {
        const auto stats = exp::run(smallRun(kind, "ATX"));
        EXPECT_EQ(stats.instructions, 32u * 12u)
            << "scheduler " << core::toString(kind);
    }
}

TEST(SystemIntegration, RunsAreDeterministic)
{
    auto run = [] {
        return exp::run(smallRun(core::SchedulerKind::SimtAware, "BIC"));
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.walkRequests, b.walkRequests);
    EXPECT_EQ(a.stallTicks, b.stallTicks);
}

TEST(SystemIntegration, RandomSchedulerSeedChangesSchedule)
{
    auto run = [](std::uint64_t seed) {
        auto spec = smallRun(core::SchedulerKind::Random, "MVT");
        spec.cfg.schedulerSeed = seed;
        return exp::run(spec);
    };
    // Different seeds must still complete correctly; runtimes may (and
    // almost surely do) differ.
    const auto a = run(1);
    const auto b = run(99);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(SystemIntegration, StatsDumpContainsAllComponents)
{
    const auto sys = exp::build(smallRun(core::SchedulerKind::Fcfs, "KMN"));
    sys->run();
    std::ostringstream os;
    sys->dumpStats(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("gpu."), std::string::npos);
    EXPECT_NE(text.find("iommu."), std::string::npos);
    EXPECT_NE(text.find("dram."), std::string::npos);
    EXPECT_NE(text.find("l2d."), std::string::npos);
}

TEST(SystemIntegration, TranslationsAreFunctionallyCorrect)
{
    // Every page the workload touches must translate to the same
    // physical page the OS page table records.
    system::System sys(smallConfig(core::SchedulerKind::SimtAware));
    auto gen = workload::makeWorkload("MVT");
    auto params = smallParams();
    auto wl = gen->generate(sys.addressSpace(), params);

    const auto &table = sys.addressSpace().pageTable();
    for (const auto &trace : wl.traces) {
        for (const auto &instr : trace) {
            for (auto va : instr.laneAddrs) {
                auto pa = table.translate(va);
                ASSERT_TRUE(pa.has_value())
                    << "unmapped workload address " << va;
            }
        }
    }
    sys.loadWorkload(std::move(wl));
    const auto stats = sys.run();
    EXPECT_GT(stats.walkRequests, 0u);
}

TEST(SystemIntegration, RegularWorkloadsWalkLittle)
{
    // Regular benchmarks coalesce to one page per instruction and
    // stream: walks per instruction must be far below the irregular
    // apps'.
    const auto irregular =
        exp::run(smallRun(core::SchedulerKind::Fcfs, "GEV"));
    const auto regular = exp::run(smallRun(core::SchedulerKind::Fcfs, "BCK"));

    const double irr_rate =
        static_cast<double>(irregular.walkRequests)
        / static_cast<double>(irregular.instructions);
    const double reg_rate =
        static_cast<double>(regular.walkRequests)
        / static_cast<double>(regular.instructions);
    EXPECT_GT(irr_rate, 5.0 * reg_rate);
}

TEST(SystemIntegration, BaselineConfigMatchesTable1)
{
    const auto cfg = system::SystemConfig::baseline();
    EXPECT_EQ(cfg.gpu.numCus, 8u);
    EXPECT_EQ(cfg.gpu.clockPeriod, 500u);
    EXPECT_EQ(cfg.l1d.sizeBytes, 32u * 1024u);
    EXPECT_EQ(cfg.l2d.sizeBytes, 4u * 1024u * 1024u);
    EXPECT_EQ(cfg.gpuTlb.l1Entries, 32u);
    EXPECT_EQ(cfg.gpuTlb.l2Entries, 512u);
    EXPECT_EQ(cfg.gpuTlb.l2Associativity, 16u);
    EXPECT_EQ(cfg.iommu.bufferEntries, 256u);
    EXPECT_EQ(cfg.iommu.numWalkers, 8u);
    EXPECT_EQ(cfg.iommu.l1TlbEntries, 32u);
    EXPECT_EQ(cfg.iommu.l2TlbEntries, 256u);
    EXPECT_EQ(cfg.dram.channels, 2u);
    EXPECT_EQ(cfg.dram.ranksPerChannel, 2u);
    EXPECT_EQ(cfg.dram.banksPerRank, 16u);
    EXPECT_EQ(cfg.scheduler, core::SchedulerKind::Fcfs);
}

} // namespace

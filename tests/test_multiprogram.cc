/**
 * @file
 * Tests for multi-program co-execution: per-app accounting, shared
 * translation hardware, and completion invariants.
 */

#include <gtest/gtest.h>

#include <string>

#include "exp/run.hh"

namespace {

using namespace gpuwalk;

workload::WorkloadParams
tinyParams()
{
    workload::WorkloadParams p;
    p.wavefronts = 12;
    p.instructionsPerWavefront = 8;
    p.footprintScale = 0.03;
    return p;
}

/** @p first as app 0 and @p second as app @p second_app of one
 *  baseline System. */
exp::RunSpec
twoApps(const std::string &first, const std::string &second,
        unsigned second_app = 1)
{
    return {system::SystemConfig::baseline(),
            {{first, tinyParams()},
             {.workload = second,
              .params = tinyParams(),
              .appId = second_app}}};
}

TEST(MultiProgram, TwoAppsBothComplete)
{
    const auto stats = exp::run(twoApps("MVT", "HOT"));

    EXPECT_EQ(stats.instructions, 2u * 12u * 8u);
    ASSERT_EQ(stats.appFinishTicks.size(), 2u);
    EXPECT_GT(stats.appFinishTicks[0], 0u);
    EXPECT_GT(stats.appFinishTicks[1], 0u);
    EXPECT_EQ(std::max(stats.appFinishTicks[0],
                       stats.appFinishTicks[1]),
              stats.runtimeTicks);
}

TEST(MultiProgram, PerAppWavefrontCountsAreTracked)
{
    const auto sys = exp::build(twoApps("ATX", "KMN"));
    sys->run();
    EXPECT_EQ(sys->gpu().numApps(), 2u);
    EXPECT_EQ(sys->gpu().appWavefrontsDone(0), 12u);
    EXPECT_EQ(sys->gpu().appWavefrontsDone(1), 12u);
}

TEST(MultiProgram, SingleAppStillWorksAsAppZero)
{
    const auto stats =
        exp::run({system::SystemConfig::baseline(), {{"BIC", tinyParams()}}});
    ASSERT_EQ(stats.appFinishTicks.size(), 1u);
    EXPECT_EQ(stats.appFinishTicks[0], stats.runtimeTicks);
}

TEST(MultiProgram, SameAppIdAccumulates)
{
    // Loading twice under one app id extends that app.
    const auto sys = exp::build(twoApps("CLR", "CLR", 0));
    sys->run();
    EXPECT_EQ(sys->gpu().numApps(), 1u);
    EXPECT_EQ(sys->gpu().appWavefrontsDone(0), 24u);
}

TEST(MultiProgram, ContentionSlowsTheVictim)
{
    // A translation-light app co-running with a translation-heavy one
    // must finish no sooner than when running alone.
    const auto solo_t =
        exp::run({system::SystemConfig::baseline(), {{"HOT", tinyParams()}}})
            .runtimeTicks;
    const auto stats = exp::run(twoApps("MVT", "HOT"));
    EXPECT_GE(stats.appFinishTicks[1], solo_t);
}

TEST(MultiProgram, DeterministicAcrossRuns)
{
    auto run = [] { return exp::run(twoApps("MVT", "SSP")); };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.appFinishTicks, b.appFinishTicks);
    EXPECT_EQ(a.walkRequests, b.walkRequests);
}

} // namespace

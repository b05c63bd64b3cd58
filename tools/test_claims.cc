/**
 * @file
 * The paper's claims as tests (ctest label `claims`): each experiment
 * with claims (Experiment::claims) runs once, audited, from the
 * Table I baseline, as `gpuwalk sweep <name> --audit` would. Every run
 * must audit clean and every claim must hold on the report. The
 * per-run facts that are not relations between summary scalars are
 * checked beside them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "experiments/experiments.hh"

namespace gpuwalk::experiments {
namespace {

std::vector<std::string>
claimedExperiments()
{
    std::vector<std::string> claimed;
    for (const auto &e : all()) {
        if (!e.claims.empty())
            claimed.push_back(e.name);
    }
    return claimed;
}

const char *
symbol(Claim::Relation relation)
{
    switch (relation) {
      case Claim::Lt: return "<";
      case Claim::Gt: return ">";
      case Claim::Le: return "<=";
      case Claim::Ge: return ">=";
    }
    return "?";
}

bool
holds(double value, Claim::Relation relation, double bound)
{
    switch (relation) {
      case Claim::Lt: return value < bound;
      case Claim::Gt: return value > bound;
      case Claim::Le: return value <= bound;
      case Claim::Ge: return value >= bound;
    }
    return false;
}

std::optional<double>
summaryValue(const exp::Report &report, std::string_view key)
{
    for (const auto &[k, v] : report.summary()) {
        if (k == key)
            return v;
    }
    return std::nullopt;
}

/** Checks @p claim on every summary key it names; a non-finite value
 *  never holds, and a key the report lacks fails. */
void
expectClaim(const exp::Report &report, const Claim &claim)
{
    double bound = 0.0;
    std::string bound_text;
    if (const auto *key = std::get_if<std::string_view>(&claim.bound)) {
        const auto value = summaryValue(report, *key);
        ASSERT_TRUE(value) << "the report has no summary key " << *key;
        bound = *value;
        bound_text = std::string(*key) + " = " + std::to_string(bound);
    } else {
        bound = std::get<double>(claim.bound);
        bound_text = std::to_string(bound);
    }

    const bool prefix = claim.key.ends_with('*');
    const auto stem = prefix ? claim.key.substr(0, claim.key.size() - 1)
                             : claim.key;
    unsigned matched = 0;
    for (const auto &[key, value] : report.summary()) {
        if (prefix ? !key.starts_with(stem) : key != claim.key)
            continue;
        ++matched;
        EXPECT_TRUE(std::isfinite(value)
                    && holds(value, claim.relation, bound))
            << "claim " << key << " " << symbol(claim.relation) << " "
            << bound_text << " fails: " << key << " = " << value;
    }
    EXPECT_GT(matched, 0u) << "the report has no summary key "
                           << claim.key;
}

std::string
label(const exp::RunResult &run)
{
    return run.workload + "/" + run.scheduler + "/" + run.variant;
}

/** Every run audited, with checks made and no violation. */
void
expectAuditedClean(std::span<const exp::RunResult> runs)
{
    for (const auto &run : runs) {
        const auto &s = run.stats;
        SCOPED_TRACE(label(run));
        EXPECT_TRUE(s.audited);
        EXPECT_GT(s.auditChecks, 0u);
        EXPECT_EQ(s.auditViolations, 0u)
            << (s.auditFindings.empty()
                    ? ""
                    : s.auditFindings.front().invariant + ": "
                          + s.auditFindings.front().message);
    }
}

/** The resident baseline has no GMMU; every demand-paged cell faults
 *  and times its faults. */
void
expectOversubscriptionRuns(std::span<const exp::RunResult> runs)
{
    for (const auto &run : runs) {
        SCOPED_TRACE(label(run));
        const auto &g = run.stats.gmmu;
        if (run.variant == "resident") {
            EXPECT_FALSE(g.enabled);
        } else {
            EXPECT_GT(g.faultsRaised, 0u);
            EXPECT_GT(g.latencySamples, 0u);
        }
    }
}

/** Prefetch counter identities per cell: demand walks all complete,
 *  speculative walks come on top of them, and SPP issues some. */
void
expectPrefetchRuns(std::span<const exp::RunResult> runs)
{
    std::uint64_t spp_issued = 0;
    for (const auto &run : runs) {
        SCOPED_TRACE(label(run));
        const auto &s = run.stats;
        const auto &pf = s.prefetch;
        if (run.variant == "pf-off") {
            EXPECT_FALSE(pf.enabled);
            EXPECT_EQ(s.walksCompleted, s.walkRequests);
            continue;
        }
        EXPECT_TRUE(pf.enabled);
        EXPECT_LE(pf.completed, pf.issued);
        EXPECT_LE(pf.useful, pf.completed);
        EXPECT_GE(pf.pollution, 0.0);
        EXPECT_LE(pf.pollution, 1.0);
        EXPECT_GE(s.walksCompleted, s.walkRequests);
        spp_issued += pf.issued;
    }
    EXPECT_GT(spp_issued, 0u) << "SPP never issued a prefetch";
}

/** The per-run facts an experiment reproduces that are not relations
 *  between summary scalars. */
const std::map<std::string_view, void (*)(std::span<const exp::RunResult>)>
    run_checks = {
        {"oversubscription", expectOversubscriptionRuns},
        {"ablation_prefetch", expectPrefetchRuns},
};

class PaperClaims : public ::testing::TestWithParam<std::string>
{};

TEST_P(PaperClaims, Hold)
{
    const Experiment &e = *find(GetParam());
    auto base = system::SystemConfig::baseline();
    base.audit.enabled = true;
    // Two workers each: `ctest -j` runs the claimed sweeps side by side.
    exp::RunnerOptions opts;
    opts.jobs = 2;
    const exp::Report report = e.fn(e, base, opts);

    ASSERT_FALSE(report.runs().empty());
    expectAuditedClean(report.runs());
    for (const auto &claim : e.claims)
        expectClaim(report, claim);
    if (const auto it = run_checks.find(e.name); it != run_checks.end())
        it->second(report.runs());
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperClaims, ::testing::ValuesIn(claimedExperiments()),
    [](const auto &info) { return info.param; });

} // namespace
} // namespace gpuwalk::experiments

/**
 * @file
 * QoS walk-scheduler tests: unit tests for the weighted-share policy
 * and the walk buffer's per-context index, plus trace-replay fairness
 * invariants over full multi-tenant runs.
 *
 * The trace-based tests mirror test_trace_invariants.cc: run the real
 * system with tracing on and assert the fairness claims per scheduling
 * decision from the PickReason-annotated Scheduled events — the aging
 * override bounds every walk's queue wait under weighted sharing
 * regardless of weights.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "core/walk_scheduler.hh"
#include "core/weighted_share_scheduler.hh"
#include "exp/metrics.hh"
#include "exp/run.hh"
#include "system/system.hh"
#include "workload/tenant_mix.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::core;
using tlb::ContextId;
using trace::Event;
using trace::EventKind;

PendingWalk
qwalk(std::uint64_t seq, ContextId ctx, tlb::InstructionId instr,
      std::uint64_t score = 1, unsigned est = 1)
{
    PendingWalk w;
    w.seq = seq;
    w.instruction = instr;
    w.ctx = ctx;
    w.score = score;
    w.estimatedAccesses = est;
    return w;
}

/** selectNext + extract + onDispatch in one step. */
PendingWalk
dispatchOne(WalkScheduler &sched, WalkBuffer &buf)
{
    const auto idx = sched.selectNext(buf);
    PendingWalk walk = buf.extract(idx);
    sched.onDispatch(buf, walk);
    return walk;
}

// --- WalkBuffer per-context index ----------------------------------

TEST(WalkBufferContextIndex, TracksPerTenantListsAndCounts)
{
    WalkBuffer buf(16);
    buf.insert(qwalk(0, 0, 1));
    buf.insert(qwalk(1, 2, 2));
    buf.insert(qwalk(2, 0, 3));
    buf.insert(qwalk(3, 2, 4));
    buf.insert(qwalk(4, 2, 5));

    EXPECT_EQ(buf.contextCount(0), 2u);
    EXPECT_EQ(buf.contextCount(1), 0u);
    EXPECT_EQ(buf.contextCount(2), 3u);
    EXPECT_GE(buf.contextLimit(), 3u);
    EXPECT_EQ(buf.contextHead(1), WalkBuffer::npos);
    EXPECT_EQ(buf.contextCount(9), 0u); // never-seen tenant
    EXPECT_EQ(buf.contextHead(9), WalkBuffer::npos);

    // Per-tenant lists are seq-ordered.
    std::size_t i = buf.contextHead(2);
    std::vector<std::uint64_t> seqs;
    while (i != WalkBuffer::npos) {
        seqs.push_back(buf.at(i).seq);
        i = buf.contextNext(i);
    }
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 3, 4}));
}

TEST(WalkBufferContextIndex, SurvivesSwapWithLastExtraction)
{
    WalkBuffer buf(16);
    buf.insert(qwalk(0, 1, 1));
    buf.insert(qwalk(1, 0, 2));
    buf.insert(qwalk(2, 1, 3));
    buf.insert(qwalk(3, 1, 4));

    // Extract a middle tenant-1 entry: the last entry (also tenant 1)
    // is swapped into its slot, exercising the link rewiring.
    std::size_t victim = buf.contextHead(1);
    victim = buf.contextNext(victim); // seq 2
    ASSERT_EQ(buf.at(victim).seq, 2u);
    buf.extract(victim);

    EXPECT_EQ(buf.contextCount(1), 2u);
    std::size_t i = buf.contextHead(1);
    std::vector<std::uint64_t> seqs;
    while (i != WalkBuffer::npos) {
        seqs.push_back(buf.at(i).seq);
        i = buf.contextNext(i);
    }
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 3}));
}

TEST(WalkBufferContextIndex, SjfBestOfContextMinimizesScoreThenSeq)
{
    WalkBuffer buf(16);
    buf.insert(qwalk(0, 0, 1, /*score=*/9));
    buf.insert(qwalk(1, 1, 2, /*score=*/5));
    buf.insert(qwalk(2, 0, 3, /*score=*/4));
    buf.insert(qwalk(3, 0, 4, /*score=*/4)); // tie: older seq 2 wins
    buf.insert(qwalk(4, 1, 5, /*score=*/7));

    const auto best0 = buf.sjfBestOfContext(0);
    ASSERT_NE(best0, WalkBuffer::npos);
    EXPECT_EQ(buf.at(best0).seq, 2u);

    const auto best1 = buf.sjfBestOfContext(1);
    ASSERT_NE(best1, WalkBuffer::npos);
    EXPECT_EQ(buf.at(best1).seq, 1u);

    EXPECT_EQ(buf.sjfBestOfContext(7), WalkBuffer::npos);
}

// --- Weighted-share scheduler --------------------------------------

TEST(WeightedShareScheduler, ServiceSplitsProportionallyToWeights)
{
    QosSchedulerConfig qos;
    qos.shareWeights = {1, 2}; // tenant 1 owed twice the throughput
    WeightedShareScheduler sched({}, qos);
    EXPECT_TRUE(sched.needsScores());
    EXPECT_EQ(sched.name(), "weighted-share");

    WalkBuffer buf(32);
    std::uint64_t seq = 0;
    std::map<ContextId, unsigned> pendingOf;
    const auto topUp = [&] {
        for (ContextId t = 0; t < 2; ++t) {
            while (pendingOf[t] < 2) {
                buf.insert(
                    qwalk(seq, t, /*instr=*/1000 + seq, /*score=*/1));
                ++seq;
                ++pendingOf[t];
            }
        }
    };

    std::map<ContextId, unsigned> wins;
    const unsigned dispatches = 300;
    for (unsigned d = 0; d < dispatches; ++d) {
        topUp(); // both tenants always pending: saturation
        const auto walk = dispatchOne(sched, buf);
        ++wins[walk.ctx];
        --pendingOf[walk.ctx];
    }

    // Weight 2 : weight 1 at saturation -> 2/3 : 1/3 of dispatches.
    EXPECT_NEAR(wins[1], 200.0, 8.0);
    EXPECT_NEAR(wins[0], 100.0, 8.0);
    // Charged virtual service converges to near-equal totals.
    const auto s0 = sched.virtualService(0);
    const auto s1 = sched.virtualService(1);
    EXPECT_LT(s0 > s1 ? s0 - s1 : s1 - s0, 2048u);
}

TEST(WeightedShareScheduler, IdleTenantCannotBankPriority)
{
    QosSchedulerConfig qos; // equal weights
    WeightedShareScheduler sched({}, qos);

    WalkBuffer buf(64);
    std::uint64_t seq = 0;
    std::map<ContextId, unsigned> pendingOf;
    const auto add = [&](ContextId t) {
        buf.insert(qwalk(seq, t, 1000 + seq, /*score=*/1));
        ++seq;
        ++pendingOf[t];
    };

    // Phase 1: both busy for a while.
    for (unsigned d = 0; d < 10; ++d) {
        while (pendingOf[0] < 2) add(0);
        while (pendingOf[1] < 2) add(1);
        --pendingOf[dispatchOne(sched, buf).ctx];
    }
    // Phase 2: tenant 1 goes idle; tenant 0 keeps the walkers busy and
    // accumulates 40 dispatches of service.
    while (buf.contextCount(1) > 0) {
        const auto idx = buf.contextHead(1);
        buf.extract(idx);
        --pendingOf[1];
    }
    for (unsigned d = 0; d < 40; ++d) {
        while (pendingOf[0] < 2) add(0);
        const auto walk = dispatchOne(sched, buf);
        ASSERT_EQ(walk.ctx, 0);
        --pendingOf[0];
    }

    // Phase 3: tenant 1 returns. Without the activation floor its
    // stale-low service total would monopolize the walkers for ~40
    // dispatches; with it, sharing resumes immediately.
    std::map<ContextId, unsigned> wins;
    for (unsigned d = 0; d < 20; ++d) {
        while (pendingOf[0] < 2) add(0);
        while (pendingOf[1] < 2) add(1);
        const auto walk = dispatchOne(sched, buf);
        ++wins[walk.ctx];
        --pendingOf[walk.ctx];
    }
    EXPECT_GE(wins[0], 8u) << "returning tenant banked idle time";
    EXPECT_GE(wins[1], 8u);
}

// --- Fairness metric ------------------------------------------------

TEST(FairnessMetrics, JainIndexBounds)
{
    EXPECT_DOUBLE_EQ(exp::jainIndex({1.0, 1.0, 1.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(exp::jainIndex({5.0}), 1.0);
    // (1+3)^2 / (2 * (1+9)) = 16/20
    EXPECT_DOUBLE_EQ(exp::jainIndex({1.0, 3.0}), 0.8);
    // Maximally unfair n-tenant split -> 1/n.
    EXPECT_NEAR(exp::jainIndex({1e-9, 1e-9, 1e-9, 1.0}), 0.25, 1e-6);
    EXPECT_TRUE(std::isnan(exp::jainIndex({})));
    EXPECT_TRUE(std::isnan(exp::jainIndex({1.0, 0.0})));
}

// --- Tenant-mix generator ------------------------------------------

TEST(TenantMix, GeneratesHeterogeneousDeterministicSpecs)
{
    workload::TenantMixConfig cfg;
    cfg.numTenants = 8;
    cfg.seed = 42;
    const auto a = workload::generateTenantMix(cfg);
    const auto b = workload::generateTenantMix(cfg);
    ASSERT_EQ(a.size(), 8u);

    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload) << i;
        EXPECT_EQ(a[i].params.seed, b[i].params.seed) << i;
        EXPECT_DOUBLE_EQ(a[i].params.footprintScale,
                         b[i].params.footprintScale)
            << i;
        EXPECT_EQ(a[i].arrivalTick, 0u) << "no churn requested";
        EXPECT_GE(a[i].params.footprintScale, cfg.footprintScaleMin);
        EXPECT_LE(a[i].params.footprintScale, cfg.footprintScaleMax);
        // Distinct trace streams even for repeated workload names.
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_NE(a[i].params.seed, a[j].params.seed);
    }
    // Neighbouring tenants alternate divergence class.
    EXPECT_NE(a[0].workload, a[1].workload);
}

TEST(TenantMix, ChurnedTenantsArriveWithinTheWindow)
{
    workload::TenantMixConfig cfg;
    cfg.numTenants = 8;
    cfg.churnFraction = 0.5;
    cfg.churnWindowTicks = 1'000'000;
    cfg.alternateWeights = true;
    const auto mix = workload::generateTenantMix(cfg);
    ASSERT_EQ(mix.size(), 8u);

    unsigned late = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        if (mix[i].arrivalTick > 0) {
            ++late;
            EXPECT_LE(mix[i].arrivalTick, cfg.churnWindowTicks);
        }
        EXPECT_EQ(mix[i].weight, i % 2 == 1 ? 2u : 1u);
    }
    EXPECT_EQ(late, 4u);
    // Churned tenants are the tail of the mix: the first half stays.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(mix[i].arrivalTick, 0u);
}

// --- Trace-replay fairness invariants ------------------------------

struct TenantRun
{
    std::vector<Event> events;
    system::RunStats stats;
    std::uint64_t overflowed = 0;
    std::uint64_t dropped = 0;
};

/** (ctx, instruction, vaPage): unique per in-flight walk — tenants
 *  share a VA layout, so the context must be part of the key. */
using WalkKey = std::tuple<std::uint16_t, std::uint64_t, mem::Addr>;

WalkKey
keyOf(const Event &ev)
{
    return {ev.ctx, ev.instruction, ev.vaPage};
}

PickReason
reasonOf(const Event &ev)
{
    return static_cast<PickReason>(ev.arg0);
}

/** A contended four-tenant mix, traced, with auditing on. */
TenantRun
runTenantsTraced(SchedulerKind kind,
                 const QosSchedulerConfig &qos = {},
                 std::uint64_t aging_threshold = 0)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = kind;
    cfg.qos = qos;
    cfg.trace.enabled = true;
    cfg.audit.enabled = true;
    cfg.audit.interval = 100'000;
    // Big enough that nothing lands in the overflow FIFO; the replays
    // below only see buffered walks.
    cfg.iommu.bufferEntries = 1u << 16;
    if (aging_threshold)
        cfg.simt.agingThreshold = aging_threshold;

    workload::TenantMixConfig mix;
    mix.numTenants = 4;
    mix.seed = 11;
    mix.wavefrontsPerTenant = 16;
    mix.instructionsPerWavefront = 6;
    mix.footprintScaleMin = 0.02;
    mix.footprintScaleMax = 0.06;
    const auto sys = exp::build(
        {cfg, exp::tenantLoads(workload::generateTenantMix(mix))});

    TenantRun out;
    out.stats = sys->run();
    out.overflowed = sys->iommu().overflowed();
    out.dropped = sys->tracer()->dropped();
    out.events = sys->tracer()->snapshot();
    return out;
}

TEST(QosTraceInvariants, PerTenantAccountingSumsToGlobal)
{
    const auto run = runTenantsTraced(SchedulerKind::WeightedShare);
    ASSERT_EQ(run.dropped, 0u);

    // The conservation auditor ran its tenant-accounting invariant
    // throughout (and at finalization) without a single violation.
    ASSERT_TRUE(run.stats.audited);
    EXPECT_EQ(run.stats.auditViolations, 0u)
        << (run.stats.auditFindings.empty()
                ? ""
                : run.stats.auditFindings.front().message);

    ASSERT_EQ(run.stats.tenants.size(), 4u);
    std::uint64_t requests = 0;
    for (const auto &t : run.stats.tenants) {
        EXPECT_GT(t.walkRequests, 0u) << "tenant " << t.ctx << " idle";
        EXPECT_GT(t.walksCompleted, 0u);
        EXPECT_GT(t.finishTick, 0u);
        EXPECT_LE(t.walksCompleted, t.walkRequests);
        requests += t.walkRequests;
    }
    EXPECT_EQ(requests, run.stats.walkRequests);
}

TEST(QosTraceInvariants, WeightedShareAgingBoundsQueueWait)
{
    constexpr std::uint64_t threshold = 64;
    QosSchedulerConfig qos;
    qos.shareWeights = {1, 2, 1, 2}; // skewed on purpose
    const auto run = runTenantsTraced(SchedulerKind::WeightedShare, qos,
                                      threshold);
    ASSERT_EQ(run.dropped, 0u);
    ASSERT_EQ(run.overflowed, 0u);
    EXPECT_EQ(run.stats.auditViolations, 0u);

    // Pass 1: the peak number of simultaneously pending walks — the
    // "older entries drain first" term of the starvation bound.
    std::map<WalkKey, std::uint64_t> start;
    std::size_t maxPending = 0;
    for (const auto &ev : run.events) {
        if (ev.kind == EventKind::Enqueued) {
            start[keyOf(ev)] = 0;
            maxPending = std::max(maxPending, start.size());
        } else if (ev.kind == EventKind::Scheduled) {
            start.erase(keyOf(ev));
        }
    }
    ASSERT_TRUE(start.empty()) << "walks enqueued but never scheduled";

    // Pass 2: however skewed the weights, no walk may wait more than
    // threshold bypasses plus the backlog that was already ahead of it
    // (aged entries are served oldest-first).
    const std::uint64_t bound = threshold + maxPending + 16;
    std::uint64_t mediated = 0, agingPicks = 0;
    for (const auto &ev : run.events) {
        if (ev.kind == EventKind::Enqueued) {
            start[keyOf(ev)] = mediated;
        } else if (ev.kind == EventKind::Scheduled) {
            const auto it = start.find(keyOf(ev));
            ASSERT_NE(it, start.end());
            ASSERT_LE(mediated - it->second, bound)
                << "walk of tenant " << ev.ctx
                << " starved past the aging bound at tick " << ev.tick;
            start.erase(it);
            if (reasonOf(ev) != PickReason::Immediate) {
                ++mediated;
                agingPicks += reasonOf(ev) == PickReason::Aging;
            }
        }
    }
    EXPECT_GT(mediated, 200u) << "mix was not contended enough";
    EXPECT_GT(agingPicks, 0u)
        << "threshold " << threshold << " never triggered aging";
}

TEST(QosTraceInvariants, QosSchedulersKeepWalkLifecycleConsistent)
{
    // The generic lifecycle invariant (every enqueue scheduled, every
    // schedule completed) holds under the QoS policy too.
    const auto run = runTenantsTraced(SchedulerKind::WeightedShare);
    ASSERT_EQ(run.dropped, 0u);
    std::map<WalkKey, unsigned> open;
    for (const auto &ev : run.events) {
        if (ev.kind == EventKind::Enqueued)
            ++open[keyOf(ev)];
        else if (ev.kind == EventKind::WalkDone)
            --open[keyOf(ev)];
    }
    for (const auto &[key, n] : open)
        ASSERT_EQ(n, 0u) << "unbalanced walk lifecycle";
    EXPECT_EQ(run.stats.walkRequests, run.stats.walksCompleted);
}

} // namespace

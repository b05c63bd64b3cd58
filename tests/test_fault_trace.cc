/**
 * @file
 * Far-fault lifecycle invariants asserted over traced runs, in the
 * style of test_trace_invariants.cc: full-system demand-paged runs
 * with tracing on, replayed event by event.
 *
 * The fault protocol the trace must witness, for every scheduler:
 *
 *  - raise before service: every FaultServiced closes exactly one
 *    open FaultRaised for the same (ctx, page), and its arg1 equals
 *    the raise-to-service span;
 *  - service before completion: while a fault for a page is open, no
 *    walk for that page completes — WalkDone strictly follows the
 *    FaultServiced that released it;
 *  - faults only where faults exist: a resident (GMMU-off) run traces
 *    zero fault events, and at oversubscription 1.0 a page faults at
 *    most once (nothing is ever evicted, so nothing re-faults);
 *  - the trace agrees with the counters: event counts match the GMMU
 *    summary, and each fault parks and releases exactly one walk.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "exp/run.hh"
#include "system/system.hh"
#include "trace/trace.hh"

namespace {

using namespace gpuwalk;
using trace::Event;
using trace::EventKind;

/** (ctx, vaPage): the identity a fault is keyed on. */
using PageKey = std::pair<std::uint16_t, mem::Addr>;

struct TracedRun
{
    std::vector<Event> events;
    system::RunStats stats;
    std::uint64_t dropped = 0;
};

TracedRun
runTraced(core::SchedulerKind kind, double ratio, bool gmmu_on = true)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = kind;
    cfg.trace.enabled = true;
    cfg.audit.enabled = true;
    if (gmmu_on) {
        cfg.gmmu.enabled = true;
        cfg.gmmu.oversubscription = ratio;
        // Shrunk latencies (cf. the determinism tests): the protocol
        // is ordering, not magnitude.
        cfg.gmmu.faultLatency = 20'000;
        cfg.gmmu.migrationLatency = 1'000;
        cfg.gmmu.batchSize = 8;
    }

    workload::WorkloadParams params;
    params.wavefronts = 8;
    params.instructionsPerWavefront = 6;
    params.footprintScale = 0.02;
    params.seed = 29;
    const auto sys = exp::build({cfg, {{"GEV", params}}});

    TracedRun out;
    out.stats = sys->run();
    out.dropped = sys->tracer()->dropped();
    out.events = sys->tracer()->snapshot();
    return out;
}

std::uint64_t
countKind(const std::vector<Event> &events, EventKind kind)
{
    std::uint64_t n = 0;
    for (const auto &ev : events)
        n += ev.kind == kind;
    return n;
}

/** Replays @p events asserting the fault protocol; returns the set of
 *  pages that faulted at least once. */
std::set<PageKey>
replayFaultProtocol(const std::vector<Event> &events)
{
    struct OpenFault
    {
        sim::Tick raised;
    };
    std::map<PageKey, OpenFault> open;
    std::set<PageKey> everFaulted;

    for (const auto &ev : events) {
        const PageKey page{ev.ctx, ev.vaPage};
        switch (ev.kind) {
        case EventKind::FaultRaised: {
            // One open fault per page: no second raise while the
            // first is in flight.
            const auto [it, fresh] = open.emplace(page, OpenFault{ev.tick});
            EXPECT_TRUE(fresh)
                << "double raise for page " << std::hex << ev.vaPage
                << std::dec << " at tick " << ev.tick;
            everFaulted.insert(page);
            // A real walker hit the fault at a real PT level.
            EXPECT_NE(ev.walker, trace::noWalker);
            EXPECT_GE(ev.level, 1u);
            EXPECT_LE(ev.level, std::uint64_t(vm::numPtLevels));
            break;
        }
        case EventKind::FaultServiced: {
            const auto it = open.find(page);
            if (it == open.end()) {
                ADD_FAILURE() << "service with no open fault for page "
                              << std::hex << ev.vaPage << std::dec
                              << " at tick " << ev.tick;
                break;
            }
            EXPECT_GE(ev.arg0, 1u) << "service released no walks";
            EXPECT_EQ(ev.arg1, ev.tick - it->second.raised)
                << "latency payload disagrees with the raise tick";
            open.erase(it);
            break;
        }
        case EventKind::WalkDone:
            // Service-before-completion: an open fault means the page
            // is non-present; no walk for it may complete.
            EXPECT_FALSE(open.count(page))
                << "WalkDone for faulted page " << std::hex
                << ev.vaPage << std::dec << " before service at tick "
                << ev.tick;
            break;
        default:
            break;
        }
    }
    EXPECT_TRUE(open.empty()) << open.size()
                              << " faults raised, never serviced";
    return everFaulted;
}

TEST(FaultTrace, ProtocolHoldsAcrossSchedulers)
{
    // Tight cap: every scheduler sees raise/evict/re-fault.
    for (const auto kind :
         {core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware,
          core::SchedulerKind::SjfOnly, core::SchedulerKind::BatchOnly,
          core::SchedulerKind::Random}) {
        const auto run = runTraced(kind, 0.04);
        ASSERT_EQ(run.dropped, 0u);
        ASSERT_TRUE(run.stats.gmmu.enabled);
        ASSERT_GT(run.stats.gmmu.faultsRaised, 0u)
            << core::toString(kind) << " never faulted";
        EXPECT_EQ(run.stats.auditViolations, 0u) << core::toString(kind);

        const auto faulted = replayFaultProtocol(run.events);
        EXPECT_FALSE(faulted.empty()) << core::toString(kind);

        // Trace and counters agree.
        EXPECT_EQ(countKind(run.events, EventKind::FaultRaised),
                  run.stats.gmmu.faultsRaised)
            << core::toString(kind);
        EXPECT_EQ(countKind(run.events, EventKind::FaultServiced),
                  run.stats.gmmu.faultsServiced)
            << core::toString(kind);

        // Exactly one walk parks behind each fault and is released
        // once, so every raise and service record names one walk.
        for (const auto &ev : run.events) {
            if (ev.kind == EventKind::FaultRaised
                || ev.kind == EventKind::FaultServiced) {
                EXPECT_EQ(ev.arg0, 1u) << core::toString(kind);
            }
        }
    }
}

TEST(FaultTrace, ResidentRunTracesNoFaultEvents)
{
    const auto run =
        runTraced(core::SchedulerKind::SimtAware, 1.0, false);
    ASSERT_EQ(run.dropped, 0u);
    EXPECT_FALSE(run.stats.gmmu.enabled);
    EXPECT_EQ(countKind(run.events, EventKind::FaultRaised), 0u);
    EXPECT_EQ(countKind(run.events, EventKind::FaultServiced), 0u);
}

TEST(FaultTrace, NoRefaultsAtFullResidency)
{
    // ratio 1.0: the cap covers the footprint, nothing is evicted, so
    // each page raises at most one fault for the whole run.
    const auto run = runTraced(core::SchedulerKind::SimtAware, 1.0);
    ASSERT_EQ(run.dropped, 0u);
    ASSERT_GT(run.stats.gmmu.faultsRaised, 0u);
    ASSERT_EQ(run.stats.gmmu.pagesEvicted, 0u);

    std::set<PageKey> raisedOnce;
    for (const auto &ev : run.events) {
        if (ev.kind != EventKind::FaultRaised)
            continue;
        EXPECT_TRUE(raisedOnce.insert({ev.ctx, ev.vaPage}).second)
            << "page " << std::hex << ev.vaPage << std::dec
            << " re-faulted without ever being evicted";
    }
    EXPECT_EQ(raisedOnce.size(), run.stats.gmmu.faultsRaised);

    replayFaultProtocol(run.events);
}

TEST(FaultTrace, EvictionCausesRefaultsUnderTightCap)
{
    // The inverse control: with the cap far below the touched set,
    // at least one page must fault, get evicted, and fault again —
    // i.e. strictly more raises than distinct pages.
    const auto run = runTraced(core::SchedulerKind::Fcfs, 0.04);
    ASSERT_EQ(run.dropped, 0u);
    ASSERT_GT(run.stats.gmmu.pagesEvicted, 0u);

    const auto faulted = replayFaultProtocol(run.events);
    EXPECT_GT(run.stats.gmmu.faultsRaised, faulted.size())
        << "no page ever re-faulted despite evictions";
}

} // namespace

/**
 * @file
 * Scheduler-invariant tests asserted over traced walk lifecycles.
 *
 * The paper's headline claims are ordering claims — batching keeps
 * walkers on one instruction, SJF serves cheap instructions first,
 * aging bounds starvation. These tests run the full system with
 * tracing enabled and check each claim per scheduling decision by
 * replaying the event stream, instead of inferring it from end-of-run
 * aggregates. Also home of the golden-trace determinism tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/cli.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "system/system.hh"
#include "trace/digest.hh"

namespace {

using namespace gpuwalk;
using trace::Event;
using trace::EventKind;

/** (instruction, vaPage): unique per in-flight walk. */
using WalkKey = std::pair<std::uint64_t, mem::Addr>;

WalkKey
keyOf(const Event &ev)
{
    return {ev.instruction, ev.vaPage};
}

core::PickReason
reasonOf(const Event &ev)
{
    return static_cast<core::PickReason>(ev.arg0);
}

/** A contended-but-quick workload shape: enough parallel wavefronts
 *  that walks queue up behind the eight walkers. */
workload::WorkloadParams
contendedParams()
{
    workload::WorkloadParams p;
    p.wavefronts = 32;
    p.instructionsPerWavefront = 12;
    p.footprintScale = 0.05;
    p.seed = 7;
    return p;
}

struct TracedRun
{
    std::vector<Event> events;
    system::RunStats stats;
    std::uint64_t overflowed = 0;
    std::uint64_t dropped = 0;
};

TracedRun
runTraced(core::SchedulerKind kind, const std::string &workload = "GEV",
          std::uint64_t aging_threshold = 0)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = kind;
    cfg.trace.enabled = true;
    // A buffer big enough that nothing lands in the overflow FIFO:
    // the replay below reconstructs the scheduler's candidate set from
    // Enqueued/Scheduled events, which only matches the walk buffer
    // when no walk is parked outside it.
    cfg.iommu.bufferEntries = 1u << 16;
    if (aging_threshold)
        cfg.simt.agingThreshold = aging_threshold;
    system::System sys(cfg);
    sys.loadBenchmark(workload, contendedParams());

    TracedRun out;
    out.stats = sys.run();
    out.overflowed = sys.iommu().overflowed();
    out.dropped = sys.tracer()->dropped();
    out.events = sys.tracer()->snapshot();
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

// --- Trace / RunStats agreement ------------------------------------

TEST(TraceInvariants, EventCountsMatchRunStats)
{
    const auto run = runTraced(core::SchedulerKind::SimtAware);
    ASSERT_EQ(run.dropped, 0u);
    ASSERT_EQ(run.overflowed, 0u);
    EXPECT_TRUE(run.stats.traced);
    EXPECT_NE(run.stats.traceDigest, 0u);
    EXPECT_EQ(run.stats.traceEvents, run.events.size());

    // Every IOMMU walk request produced exactly one Enqueued event and
    // one WalkDone; every dispatch one Scheduled.
    EXPECT_EQ(countKind(run.events, EventKind::Enqueued),
              run.stats.walkRequests);
    EXPECT_EQ(countKind(run.events, EventKind::WalkDone),
              run.stats.walksCompleted);
    EXPECT_EQ(countKind(run.events, EventKind::Scheduled),
              run.stats.walkRequests);

    // The latency histograms sampled once per dispatch / completion.
    EXPECT_EQ(run.stats.latency.queueWait.samples,
              run.stats.walkRequests);
    EXPECT_EQ(run.stats.latency.walkerService.samples,
              run.stats.walksCompleted);
}

TEST(TraceInvariants, QueueWaitAndServiceSpansAreConsistent)
{
    const auto run = runTraced(core::SchedulerKind::SimtAware);
    ASSERT_EQ(run.dropped, 0u);

    std::map<WalkKey, sim::Tick> enqueuedAt, scheduledAt;
    std::map<WalkKey, std::uint64_t> memCompletions;
    for (const auto &ev : run.events) {
        switch (ev.kind) {
        case EventKind::Enqueued:
            enqueuedAt[keyOf(ev)] = ev.tick;
            break;
        case EventKind::Scheduled: {
            // arg1 is the queue wait: dispatch tick minus arrival.
            ASSERT_TRUE(enqueuedAt.count(keyOf(ev)));
            EXPECT_EQ(ev.arg1, ev.tick - enqueuedAt[keyOf(ev)]);
            scheduledAt[keyOf(ev)] = ev.tick;
            enqueuedAt.erase(keyOf(ev));
            break;
        }
        case EventKind::MemCompleted:
            ++memCompletions[keyOf(ev)];
            break;
        case EventKind::WalkDone: {
            // arg1 is the walker service time; the walker started at
            // the dispatch tick. arg0 is the PTE fetch count.
            ASSERT_TRUE(scheduledAt.count(keyOf(ev)));
            EXPECT_EQ(ev.arg1, ev.tick - scheduledAt[keyOf(ev)]);
            EXPECT_EQ(ev.arg0, memCompletions[keyOf(ev)]);
            EXPECT_GE(ev.arg0, 1u);
            EXPECT_LE(ev.arg0, std::uint64_t(vm::numPtLevels));
            scheduledAt.erase(keyOf(ev));
            memCompletions.erase(keyOf(ev));
            break;
        }
        default:
            break;
        }
    }
    EXPECT_TRUE(enqueuedAt.empty()) << "walks enqueued, never scheduled";
    EXPECT_TRUE(scheduledAt.empty()) << "walks scheduled, never done";
}

// --- Batching (paper key idea 2) -----------------------------------

/**
 * Replays the stream keeping the set of pending (enqueued, not yet
 * dispatched) walks per instruction and the last scheduler-driven
 * dispatch, asserting @p perDecision at every scheduler-driven pick.
 */
template <typename Fn>
void
replayDecisions(const std::vector<Event> &events, Fn &&perDecision)
{
    std::map<std::uint64_t, std::uint64_t> pendingPerInstr;
    std::optional<std::uint64_t> lastInstr;
    for (const auto &ev : events) {
        if (ev.kind == EventKind::Enqueued) {
            ++pendingPerInstr[ev.instruction];
        } else if (ev.kind == EventKind::Scheduled) {
            if (reasonOf(ev) != core::PickReason::Immediate) {
                perDecision(ev, pendingPerInstr, lastInstr);
                lastInstr = ev.instruction;
            }
            if (--pendingPerInstr[ev.instruction] == 0)
                pendingPerInstr.erase(ev.instruction);
        }
    }
}

TEST(TraceInvariants, BatchOnlySticksToLastInstructionWhilePending)
{
    const auto run = runTraced(core::SchedulerKind::BatchOnly);
    ASSERT_EQ(run.dropped, 0u);
    ASSERT_EQ(run.overflowed, 0u);

    std::uint64_t batchPicks = 0;
    replayDecisions(
        run.events,
        [&](const Event &ev, const auto &pending,
            const std::optional<std::uint64_t> &lastInstr) {
            // Default aging threshold (2M) never fires in a run this
            // small, so every pick is Batch or the fall-through.
            ASSERT_NE(reasonOf(ev), core::PickReason::Aging);
            if (lastInstr && pending.count(*lastInstr)) {
                // A sibling of the last dispatched instruction was
                // pending: batching must pick it, and say so.
                ASSERT_EQ(ev.instruction, *lastInstr)
                    << "batching broke at tick " << ev.tick;
                ASSERT_EQ(reasonOf(ev), core::PickReason::Batch);
                ++batchPicks;
            } else {
                ASSERT_EQ(reasonOf(ev), core::PickReason::Policy);
            }
        });
    EXPECT_GT(batchPicks, 0u) << "workload never exercised batching";
}

TEST(TraceInvariants, BatchReasonOnlyWhenSiblingOfLastDispatchPending)
{
    // The stale-lastInstruction fix asserted per decision: with the
    // full scheduler, a pick may be labelled Batch exactly when the
    // most recently dispatched instruction still has a pending walk.
    // A scheduler that let a drained instruction's ID linger would
    // claim Batch for picks this replay proves cannot be batched.
    const auto run = runTraced(core::SchedulerKind::SimtAware);
    ASSERT_EQ(run.dropped, 0u);
    ASSERT_EQ(run.overflowed, 0u);

    std::uint64_t batchPicks = 0;
    replayDecisions(
        run.events,
        [&](const Event &ev, const auto &pending,
            const std::optional<std::uint64_t> &lastInstr) {
            const bool siblingPending =
                lastInstr && pending.count(*lastInstr);
            if (reasonOf(ev) == core::PickReason::Batch) {
                ASSERT_TRUE(siblingPending)
                    << "Batch pick for a drained instruction at tick "
                    << ev.tick;
                ASSERT_EQ(ev.instruction, *lastInstr);
                ++batchPicks;
            }
            if (siblingPending) {
                // Default 2M aging threshold never fires here, so the
                // sibling must win via batching.
                ASSERT_EQ(reasonOf(ev), core::PickReason::Batch);
            }
        });
    EXPECT_GT(batchPicks, 0u) << "workload never exercised batching";
}

// --- SJF scoring (paper key idea 1) --------------------------------

TEST(TraceInvariants, SjfOnlyPicksMinimumAccumulatedScore)
{
    const auto run = runTraced(core::SchedulerKind::SjfOnly);
    ASSERT_EQ(run.dropped, 0u);
    ASSERT_EQ(run.overflowed, 0u);

    // Scored events mirror the IOMMU's accumulation rule: arg1 is the
    // instruction's job-length score after folding the new walk in,
    // and every buffered sibling is updated to it.
    std::map<std::uint64_t, std::uint64_t> score;
    std::map<std::uint64_t, std::uint64_t> pendingPerInstr;
    std::uint64_t sjfPicks = 0;
    for (const auto &ev : run.events) {
        switch (ev.kind) {
        case EventKind::Enqueued:
            ++pendingPerInstr[ev.instruction];
            break;
        case EventKind::Scored:
            ASSERT_GE(ev.arg0, 1u); // PWC estimate in [1, 4]
            ASSERT_LE(ev.arg0, std::uint64_t(vm::numPtLevels));
            score[ev.instruction] = ev.arg1;
            break;
        case EventKind::Scheduled:
            if (reasonOf(ev) == core::PickReason::Sjf) {
                const auto picked = score.at(ev.instruction);
                for (const auto &[instr, count] : pendingPerInstr) {
                    ASSERT_GT(count, 0u);
                    ASSERT_LE(picked, score.at(instr))
                        << "instruction " << instr
                        << " had a lower score at tick " << ev.tick;
                }
                ++sjfPicks;
            }
            if (--pendingPerInstr[ev.instruction] == 0)
                pendingPerInstr.erase(ev.instruction);
            break;
        default:
            break;
        }
    }
    EXPECT_GT(sjfPicks, 0u) << "workload never exercised SJF";
}

// --- Aging (anti-starvation) ---------------------------------------

TEST(TraceInvariants, AgingBoundsHowOftenAWalkIsBypassed)
{
    constexpr std::uint64_t threshold = 8;
    const auto run = runTraced(core::SchedulerKind::SimtAware, "GEV",
                               threshold);
    ASSERT_EQ(run.dropped, 0u);
    ASSERT_EQ(run.overflowed, 0u);

    // Enqueue order is seq order; a pending walk is bypassed whenever
    // a younger walk wins a scheduler-driven pick. The aging rule
    // promotes any walk bypassed `threshold` times, so no walk can be
    // bypassed much past it (+1 covers the decision in flight).
    std::map<WalkKey, std::uint64_t> enqSeq;
    std::map<WalkKey, std::uint64_t> bypassed;
    std::uint64_t nextSeq = 0, agingPicks = 0;
    for (const auto &ev : run.events) {
        if (ev.kind == EventKind::Enqueued) {
            enqSeq[keyOf(ev)] = nextSeq++;
            bypassed[keyOf(ev)] = 0;
        } else if (ev.kind == EventKind::Scheduled) {
            const auto picked = keyOf(ev);
            ASSERT_TRUE(enqSeq.count(picked));
            ASSERT_LE(bypassed.at(picked), threshold + 1)
                << "walk starved past the aging bound at tick "
                << ev.tick;
            agingPicks += reasonOf(ev) == core::PickReason::Aging;
            if (reasonOf(ev) != core::PickReason::Immediate) {
                for (auto &[key, count] : bypassed) {
                    if (enqSeq.at(key) < enqSeq.at(picked))
                        ++count;
                }
            }
            enqSeq.erase(picked);
            bypassed.erase(picked);
        }
    }
    EXPECT_GT(agingPicks, 0u)
        << "threshold " << threshold << " never triggered aging";
}

// --- Golden-trace determinism --------------------------------------

TEST(GoldenTrace, SameConfigAndSeedDigestsIdentically)
{
    const auto a = runTraced(core::SchedulerKind::SimtAware);
    const auto b = runTraced(core::SchedulerKind::SimtAware);
    ASSERT_NE(a.stats.traceDigest, 0u);
    EXPECT_EQ(a.stats.traceDigest, b.stats.traceDigest);
    EXPECT_EQ(a.stats.traceEvents, b.stats.traceEvents);
    EXPECT_EQ(a.events.size(), b.events.size());
}

TEST(GoldenTrace, SchedulerChangesTheDigest)
{
    const auto fcfs = runTraced(core::SchedulerKind::Fcfs);
    const auto simt = runTraced(core::SchedulerKind::SimtAware);
    EXPECT_NE(fcfs.stats.traceDigest, simt.stats.traceDigest);
}

TEST(GoldenTrace, SweepDigestsAreJobCountInvariant)
{
    // The acceptance property: --jobs 1 and --jobs N produce the same
    // trace digests run for run, because every run owns its System.
    const auto sweep = [](unsigned jobs) {
        // No trace path: no files are written.
        const auto opts = exp::parseCli(
            exp::Command::Sweep,
            {"--jobs", std::to_string(jobs), "--trace-ring=1048576"});
        exp::SweepSpec spec(opts.cfg);
        spec.params = contendedParams();
        spec.params.wavefronts = 16;
        spec.params.instructionsPerWavefront = 6;
        spec.params.footprintScale = 0.02;
        spec.workloads = {"KMN", "MVT"};
        spec.schedulers = {core::SchedulerKind::Fcfs,
                           core::SchedulerKind::SimtAware};
        return runSweep(spec, opts.runner);
    };

    const auto serial = sweep(1);
    const auto parallel = sweep(8);
    ASSERT_EQ(serial.runs().size(), parallel.runs().size());
    for (std::size_t i = 0; i < serial.runs().size(); ++i) {
        const auto &s = serial.runs()[i].stats;
        const auto &p = parallel.runs()[i].stats;
        ASSERT_TRUE(s.traced);
        ASSERT_NE(s.traceDigest, 0u);
        EXPECT_EQ(s.traceDigest, p.traceDigest)
            << "run " << i << " diverged between --jobs 1 and 8";
        EXPECT_EQ(s.traceEvents, p.traceEvents);
        // Tracing is observation-only: the full stats JSON (which
        // embeds the digest) must also be byte-identical.
        EXPECT_EQ(exp::statsJsonString(s), exp::statsJsonString(p));
    }
}

TEST(GoldenTrace, TracingDoesNotPerturbSimulatedResults)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::SimtAware;

    auto run = [&](bool traced) {
        auto c = cfg;
        c.trace.enabled = traced;
        system::System sys(c);
        sys.loadBenchmark("GEV", contendedParams());
        return sys.run();
    };
    const auto off = run(false);
    const auto on = run(true);
    EXPECT_EQ(off.runtimeTicks, on.runtimeTicks);
    EXPECT_EQ(off.stallTicks, on.stallTicks);
    EXPECT_EQ(off.walkRequests, on.walkRequests);
    EXPECT_EQ(off.walksCompleted, on.walksCompleted);
    EXPECT_FALSE(off.traced);
    EXPECT_TRUE(on.traced);
}

TEST(GoldenTrace, AuditingDoesNotPerturbSimulatedResults)
{
    // Auditing must be as invisible as tracing: the same traced run
    // with and without periodic audit checks produces the identical
    // event-for-event trace digest. The periodic audit event consumes
    // event-queue sequence numbers, so this proves those are pure
    // tie-breakers with no behavioural leak.
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = core::SchedulerKind::SimtAware;
    cfg.trace.enabled = true;

    auto run = [&](bool audited) {
        auto c = cfg;
        c.audit.enabled = audited;
        c.audit.interval = 100'000; // many periodic checks
        system::System sys(c);
        sys.loadBenchmark("GEV", contendedParams());
        return sys.run();
    };
    const auto off = run(false);
    const auto on = run(true);
    ASSERT_NE(off.traceDigest, 0u);
    EXPECT_EQ(off.traceDigest, on.traceDigest);
    EXPECT_EQ(off.runtimeTicks, on.runtimeTicks);
    EXPECT_EQ(off.stallTicks, on.stallTicks);
    EXPECT_EQ(off.walkRequests, on.walkRequests);
    EXPECT_EQ(off.walksCompleted, on.walksCompleted);
    EXPECT_TRUE(on.audited);
    EXPECT_GT(on.auditChecks, 0u);
    EXPECT_EQ(on.auditViolations, 0u);
}

} // namespace

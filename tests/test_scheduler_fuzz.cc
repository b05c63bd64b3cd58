/**
 * @file
 * Randomized invariant checks on the scheduling policies: drive each
 * scheduler through thousands of random insert/dispatch cycles and
 * assert its defining property at every selection — plus traced-stream
 * well-formedness checks on full-system runs of every policy.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <utility>

#include "core/fcfs_scheduler.hh"
#include "core/simt_aware_scheduler.hh"
#include "core/walk_scheduler.hh"
#include "exp/run.hh"
#include "sim/rng.hh"
#include "system/system.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::core;

/** Random insert/extract driver shared by the per-policy tests. */
template <typename CheckFn>
void
drive(WalkScheduler &sched, CheckFn &&check, std::uint64_t seed,
      bool with_scores = false)
{
    sim::Rng rng(seed);
    WalkBuffer buf(64);
    std::uint64_t next_seq = 0;
    std::map<tlb::InstructionId, std::uint64_t> scores;

    for (int i = 0; i < 20000; ++i) {
        if (!buf.full() && (buf.empty() || rng.chance(0.55))) {
            PendingWalk w;
            w.seq = next_seq++;
            w.instruction = rng.below(16);
            if (with_scores) {
                // Emulate the IOMMU's accumulation rule.
                auto &s = scores[w.instruction];
                s += 1 + rng.below(4);
                w.score = s;
                buf.rescoreInstruction(w.instruction, s);
            }
            buf.insert(std::move(w));
        } else {
            const std::size_t idx = sched.selectNext(buf);
            ASSERT_LT(idx, buf.size());
            check(buf, idx, sched);
            PendingWalk w = buf.extract(idx);
            sched.onDispatch(buf, w);
            if (buf.empty())
                scores.clear();
        }
    }
}

TEST(SchedulerFuzz, FcfsAlwaysPicksGlobalOldest)
{
    FcfsScheduler sched;
    drive(sched,
          [](const WalkBuffer &buf, std::size_t idx, WalkScheduler &) {
              ASSERT_EQ(buf.at(idx).seq,
                        buf.at(buf.oldestIndex()).seq);
          },
          11);
}

TEST(SchedulerFuzz, SimtAwareBatchesOrPicksMinScore)
{
    SimtAwareScheduler sched;
    drive(
        sched,
        [](const WalkBuffer &buf, std::size_t idx, WalkScheduler &s) {
            auto &simt = static_cast<SimtAwareScheduler &>(s);
            const auto &picked = buf.at(idx);
            if (simt.lastInstruction()) {
                // If any sibling of the last instruction is present,
                // the pick must be one of them (and the oldest).
                bool sibling_exists = false;
                std::uint64_t oldest_sibling = ~0ull;
                for (const auto &e : buf.entries()) {
                    if (e.instruction
                        == *simt.lastInstruction()) {
                        sibling_exists = true;
                        oldest_sibling =
                            std::min(oldest_sibling, e.seq);
                    }
                }
                if (sibling_exists) {
                    ASSERT_EQ(picked.instruction,
                              *simt.lastInstruction());
                    ASSERT_EQ(picked.seq, oldest_sibling);
                    return;
                }
            }
            // Otherwise: minimum score; ties oldest-first.
            for (const auto &e : buf.entries()) {
                ASSERT_FALSE(e.score < picked.score
                             || (e.score == picked.score
                                 && e.seq < picked.seq))
                    << "better candidate existed";
            }
        },
        13, /*with_scores=*/true);
}

// --- Traced-stream well-formedness ---------------------------------

/**
 * Validates one traced run's event stream: every enqueued walk is
 * scheduled and completes exactly once, lifecycle spans nest in order,
 * and each walker's timeline is monotone and non-interleaved.
 */
void
validateTracedStream(const std::vector<trace::Event> &events,
                     unsigned num_walkers,
                     const gpuwalk::system::RunStats &stats)
{
    using trace::EventKind;
    using WalkKey = std::pair<std::uint64_t, mem::Addr>;

    /** One walker's in-flight walk. */
    struct Active
    {
        WalkKey key;
        std::optional<unsigned> fetchLevel; ///< issued, not completed
        std::optional<unsigned> lastLevel;  ///< last completed level
        sim::Tick issuedAt = 0;
        std::uint64_t completions = 0;
    };

    std::map<WalkKey, sim::Tick> pending;           // enqueued
    std::map<WalkKey, std::uint32_t> inflight;      // on a walker
    std::set<WalkKey> done;
    std::map<std::uint32_t, Active> active;         // per walker
    std::map<std::uint32_t, sim::Tick> walkerTick;
    sim::Tick lastTick = 0;

    for (const auto &ev : events) {
        // The stream is recorded in simulation order.
        ASSERT_GE(ev.tick, lastTick);
        lastTick = ev.tick;
        const WalkKey key{ev.instruction, ev.vaPage};

        switch (ev.kind) {
        case EventKind::Coalesced:
            break; // TLB-level; most never reach the walk path
        case EventKind::Enqueued:
            // (instruction, page) identifies a walk: MSHR merging
            // guarantees it enters the walk path at most once.
            ASSERT_FALSE(pending.count(key));
            ASSERT_FALSE(inflight.count(key));
            ASSERT_FALSE(done.count(key)) << "walk re-enqueued";
            pending[key] = ev.tick;
            break;
        case EventKind::Scored:
            ASSERT_TRUE(pending.count(key))
                << "scored a walk that is not buffered";
            break;
        case EventKind::Scheduled: {
            ASSERT_TRUE(pending.count(key));
            ASSERT_GE(ev.tick, pending.at(key));
            ASSERT_LT(ev.walker, num_walkers);
            ASSERT_FALSE(active.count(ev.walker))
                << "walker " << ev.walker << " double-booked";
            pending.erase(key);
            inflight[key] = ev.walker;
            active[ev.walker] = Active{key, {}, {}, 0, 0};
            walkerTick[ev.walker] = ev.tick;
            break;
        }
        case EventKind::MemIssued: {
            ASSERT_TRUE(inflight.count(key));
            ASSERT_EQ(inflight.at(key), ev.walker);
            auto &a = active.at(ev.walker);
            ASSERT_EQ(a.key, key) << "walker events interleaved";
            ASSERT_FALSE(a.fetchLevel) << "two fetches outstanding";
            ASSERT_GE(ev.tick, walkerTick.at(ev.walker));
            ASSERT_GE(unsigned(ev.level), 1u);
            ASSERT_LE(unsigned(ev.level), vm::numPtLevels);
            if (a.lastLevel) {
                // The walk descends one level per fetch.
                ASSERT_EQ(unsigned(ev.level), *a.lastLevel - 1);
            }
            a.fetchLevel = ev.level;
            a.issuedAt = ev.tick;
            walkerTick[ev.walker] = ev.tick;
            break;
        }
        case EventKind::MemCompleted: {
            ASSERT_TRUE(inflight.count(key));
            auto &a = active.at(ev.walker);
            ASSERT_EQ(a.key, key);
            ASSERT_TRUE(a.fetchLevel);
            ASSERT_EQ(unsigned(ev.level), *a.fetchLevel);
            ASSERT_GE(ev.tick, a.issuedAt);
            ASSERT_EQ(ev.arg0, ev.tick - a.issuedAt); // latency
            a.lastLevel = a.fetchLevel;
            a.fetchLevel.reset();
            ++a.completions;
            walkerTick[ev.walker] = ev.tick;
            break;
        }
        case EventKind::WalkDone: {
            ASSERT_TRUE(inflight.count(key));
            ASSERT_EQ(inflight.at(key), ev.walker);
            auto &a = active.at(ev.walker);
            ASSERT_EQ(a.key, key);
            ASSERT_FALSE(a.fetchLevel) << "done with a fetch in flight";
            ASSERT_GE(ev.tick, walkerTick.at(ev.walker));
            ASSERT_EQ(ev.arg0, a.completions);
            inflight.erase(key);
            active.erase(ev.walker);
            walkerTick[ev.walker] = ev.tick;
            ASSERT_TRUE(done.insert(key).second)
                << "walk completed twice";
            break;
        }
        case EventKind::FaultRaised:
        case EventKind::FaultServiced:
            FAIL() << "fault event in a fully resident run";
            break;
        case EventKind::PrefetchIssued:
        case EventKind::PrefetchUseful:
            // Prefetch walks exist only with a prefetcher configured
            // (ARCHITECTURE §16); the baseline runs without one.
            FAIL() << "prefetch event with the prefetcher off";
            break;
        }
    }

    // Everything enqueued drained: no pending walks, no busy walkers.
    EXPECT_TRUE(pending.empty());
    EXPECT_TRUE(inflight.empty());
    EXPECT_TRUE(active.empty());
    EXPECT_EQ(done.size(), stats.walksCompleted);
}

TEST(SchedulerFuzz, TracedStreamsAreWellFormedForEveryScheduler)
{
    // All five paper policies over the same irregular workload.
    for (const auto kind :
         {SchedulerKind::Fcfs, SchedulerKind::Random,
          SchedulerKind::SjfOnly, SchedulerKind::BatchOnly,
          SchedulerKind::SimtAware}) {
        SCOPED_TRACE(toString(kind));
        auto cfg = gpuwalk::system::SystemConfig::baseline();
        cfg.scheduler = kind;
        cfg.trace.enabled = true;

        workload::WorkloadParams params;
        params.wavefronts = 16;
        params.instructionsPerWavefront = 6;
        params.footprintScale = 0.05;
        params.seed = 11;

        const auto sys = exp::build({cfg, {{"GEV", params}}});
        const auto stats = sys->run();

        ASSERT_EQ(sys->tracer()->dropped(), 0u);
        validateTracedStream(sys->tracer()->snapshot(),
                             cfg.iommu.numWalkers, stats);
    }
}

TEST(SchedulerFuzz, AgingGuaranteesEventualService)
{
    // With threshold T, no request may be bypassed more than T + the
    // in-flight window times.
    SimtSchedulerConfig cfg;
    cfg.agingThreshold = 32;
    SimtAwareScheduler sched(SchedulerKind::SimtAware, cfg);
    drive(
        sched,
        [&](const WalkBuffer &buf, std::size_t, WalkScheduler &) {
            for (const auto &e : buf.entries())
                ASSERT_LE(e.bypassed, cfg.agingThreshold + 1);
        },
        23, /*with_scores=*/true);
}

} // namespace

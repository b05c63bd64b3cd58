/**
 * @file
 * Differential fuzz: indexed schedulers vs. the reference scans.
 *
 * The production schedulers now answer their pick rules from
 * WalkBuffer's incremental indexes; core/reference_scan.hh retains the
 * original scan-at-dispatch loops as executable specifications. This
 * suite drives both over identical randomized request streams — one
 * shared buffer, both implementations consulted before each extract —
 * and asserts the *same index* and the *same PickReason* at every
 * decision, for the four indexed policies (fcfs, sjf-only,
 * batch-only, simt-aware). Streams include out-of-order
 * sequence numbers, pre-aged and saturated bypass counters, and
 * low-threshold configs that make the aging override fire, so the
 * index fast paths and their fallback walks are all exercised.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/fcfs_scheduler.hh"
#include "core/reference_scan.hh"
#include "core/simt_aware_scheduler.hh"
#include "sim/rng.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::core;

/** Draws unique seqs, mildly shuffled within blocks of four. */
class SeqSource
{
  public:
    explicit SeqSource(sim::Rng &rng) : rng_(rng) {}

    std::uint64_t
    next()
    {
        if (window_.empty()) {
            for (int i = 0; i < 4; ++i)
                window_.push_back(nextSeq_++);
            for (std::size_t i = window_.size(); i > 1; --i)
                std::swap(window_[i - 1], window_[rng_.below(i)]);
        }
        const std::uint64_t s = window_.back();
        window_.pop_back();
        return s;
    }

  private:
    sim::Rng &rng_;
    std::uint64_t nextSeq_ = 0;
    std::vector<std::uint64_t> window_;
};

/** Options shaping one differential stream. */
struct StreamOptions
{
    std::uint64_t seed = 1;
    int iterations = 20000;
    bool withScores = false;
    /** Probability (percent) an insert carries a pre-aged bypass
     *  counter, including the saturated sentinel. */
    unsigned preAgedPercent = 0;
    std::uint64_t agingThreshold = 2'000'000;
};

PendingWalk
randomWalk(sim::Rng &rng, SeqSource &seqs, const StreamOptions &opt)
{
    PendingWalk w;
    w.seq = seqs.next();
    w.instruction = rng.below(16);
    if (opt.preAgedPercent && rng.below(100) < opt.preAgedPercent) {
        w.bypassed = rng.below(2) == 0
                         ? ~std::uint64_t{0}
                         : opt.agingThreshold + rng.below(4);
    }
    return w;
}

/** Mirrors Iommu::admitToBuffer's arrival-time scoring. */
void
applyScoring(WalkBuffer &buf, PendingWalk &w, sim::Rng &rng)
{
    const unsigned estimate = 1 + static_cast<unsigned>(rng.below(4));
    w.estimatedAccesses = estimate;
    const std::uint64_t new_score =
        buf.instructionScore(w.instruction) + estimate;
    buf.rescoreInstruction(w.instruction, new_score);
    w.score = new_score;
}

/**
 * Runs one stream through a shared buffer, consulting @p indexed and
 * @p ref before every extract. The callables see the same buffer and
 * must agree on the pick; @p onDispatch relays the extracted walk to
 * both sides' state.
 */
template <typename IndexedPick, typename RefPick, typename OnDispatch>
void
runStream(const StreamOptions &opt, IndexedPick &&indexedPick,
          RefPick &&refPick, OnDispatch &&onDispatch)
{
    sim::Rng rng(opt.seed);
    SeqSource seqs(rng);
    WalkBuffer buf(64);
    std::uint64_t decisions = 0;

    for (int i = 0; i < opt.iterations; ++i) {
        if (!buf.full() && (buf.empty() || rng.chance(0.55))) {
            PendingWalk w = randomWalk(rng, seqs, opt);
            if (opt.withScores)
                applyScoring(buf, w, rng);
            buf.insert(std::move(w));
        } else {
            const std::size_t got = indexedPick(buf);
            const std::size_t want = refPick(buf);
            ASSERT_EQ(got, want)
                << "divergence at decision " << decisions << ": indexed"
                << " picked seq " << buf.at(got).seq << ", reference"
                << " picked seq " << buf.at(want).seq;
            PendingWalk w = buf.extract(got);
            onDispatch(buf, w);
            ++decisions;
        }
    }
    EXPECT_GT(decisions, 1000u);
}

TEST(SchedulerDiff, FcfsMatchesReferenceScan)
{
    FcfsScheduler sched;
    runStream(
        StreamOptions{.seed = 101},
        [&](const WalkBuffer &buf) { return sched.selectNext(buf); },
        [](const WalkBuffer &buf) { return reference::fcfsSelect(buf); },
        [&](WalkBuffer &buf, const PendingWalk &w) {
            sched.onDispatch(buf, w);
        });
}

/** Simt family: production scheduler vs. SimtScan under one config. */
void
runSimtDiff(const SimtSchedulerConfig &cfg, const StreamOptions &opt)
{
    SimtAwareScheduler sched(cfg);
    reference::SimtScan ref(cfg);
    runStream(
        opt,
        [&](const WalkBuffer &buf) { return sched.selectNext(buf); },
        [&](const WalkBuffer &buf) {
            const std::size_t want = ref.selectNext(buf);
            // Decisions must agree on the *rule* too, not just the
            // index — a batch pick mislabelled SJF would corrupt the
            // traced PickReason stream.
            EXPECT_EQ(static_cast<int>(sched.lastPickReason()),
                      static_cast<int>(ref.lastPickReason()));
            return want;
        },
        [&](WalkBuffer &buf, const PendingWalk &w) {
            sched.onDispatch(buf, w);
            ref.onDispatch(w);
        });
}

TEST(SchedulerDiff, SjfOnlyMatchesReferenceScan)
{
    SimtSchedulerConfig cfg;
    cfg.enableBatching = false;
    runSimtDiff(cfg, {.seed = 103, .withScores = true});
}

TEST(SchedulerDiff, BatchOnlyMatchesReferenceScan)
{
    SimtSchedulerConfig cfg;
    cfg.enableSjf = false;
    runSimtDiff(cfg, {.seed = 105});
}

TEST(SchedulerDiff, SimtAwareMatchesReferenceScan)
{
    runSimtDiff({}, {.seed = 107, .withScores = true});
}

TEST(SchedulerDiff, SimtAwareWithAgingPressureMatchesReferenceScan)
{
    // Tiny threshold: the aging override fires constantly, exercising
    // the watermark fast path, the confirming arrival walk, and its
    // tightening miss path.
    SimtSchedulerConfig cfg;
    cfg.agingThreshold = 4;
    runSimtDiff(cfg, {.seed = 109,
                      .withScores = true,
                      .preAgedPercent = 10,
                      .agingThreshold = cfg.agingThreshold});
}

TEST(SchedulerDiff, SimtAwareWithSaturatedCountersMatchesReferenceScan)
{
    // Saturated (all-ones) bypass counters must neither wrap nor stop
    // qualifying for the aging override.
    SimtSchedulerConfig cfg;
    cfg.agingThreshold = 64;
    runSimtDiff(cfg, {.seed = 111,
                      .withScores = true,
                      .preAgedPercent = 25,
                      .agingThreshold = cfg.agingThreshold});
}

} // namespace

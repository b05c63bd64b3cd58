/**
 * @file
 * Naive random walk scheduling — the paper's Figure 2 strawman,
 * demonstrating how much a *bad* order costs (~26% slowdown vs FCFS).
 */

#ifndef GPUWALK_CORE_RANDOM_SCHEDULER_HH
#define GPUWALK_CORE_RANDOM_SCHEDULER_HH

#include "core/walk_scheduler.hh"
#include "sim/rng.hh"

namespace gpuwalk::core {

/** Picks a uniformly random pending request. Deterministic per seed. */
class RandomScheduler : public WalkScheduler
{
  public:
    explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}

    std::string name() const override { return "random"; }

    std::size_t
    selectNext(const WalkBuffer &buffer) override
    {
        return static_cast<std::size_t>(rng_.below(buffer.size()));
    }

    /** A random pick has no aging override; skip the bookkeeping. */
    void onDispatch(WalkBuffer &, const PendingWalk &) override {}

    /** Tells the auditor all buffered entries must show bypassed == 0. */
    bool tracksAging() const override { return false; }

  private:
    sim::Rng rng_;
};

} // namespace gpuwalk::core

#endif // GPUWALK_CORE_RANDOM_SCHEDULER_HH

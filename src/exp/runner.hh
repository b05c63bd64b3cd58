/**
 * @file
 * Parallel sweep execution.
 *
 * Every job builds its own System (own page table, TLBs, RNG streams,
 * event queue), so simulated results are bit-for-bit identical
 * regardless of thread count — parallelism only changes host wall
 * time. Results land at their job's expansion index, keeping report
 * row order deterministic too.
 */

#ifndef GPUWALK_EXP_RUNNER_HH
#define GPUWALK_EXP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/sweep.hh"

namespace gpuwalk::exp {

/**
 * Execution knobs for a sweep. What each run simulates comes only
 * from its job's config, never from here.
 */
struct RunnerOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency. */
    unsigned jobs = 0;
};

/**
 * The outcome of one sweep: per-run results in expansion order plus
 * aggregate execution facts.
 */
class SweepResult
{
  public:
    const std::vector<RunResult> &runs() const { return runs_; }

    /**
     * The run matching the given labels; an empty @p scheduler or
     * @p variant matches anything. panic() if nothing matches (a
     * label typo is an experiment bug, not a runtime condition).
     */
    const RunResult &at(const std::string &workload,
                        const std::string &scheduler = "",
                        const std::string &variant = "") const;

    /** Overload keyed on the scheduler enum. */
    const RunResult &at(const std::string &workload,
                        core::SchedulerKind scheduler,
                        const std::string &variant = "") const;

    /** Shorthand for at(...).stats. */
    const system::RunStats &stats(const std::string &workload,
                                  core::SchedulerKind scheduler,
                                  const std::string &variant = "") const;

    /** Host seconds for the whole sweep (parallel wall time). */
    double wallSeconds() const { return wall_seconds_; }

    /** Worker threads actually used. */
    unsigned jobsUsed() const { return jobs_used_; }

  private:
    friend SweepResult runJobs(const std::vector<Job> &,
                               const RunnerOptions &);

    std::vector<RunResult> runs_;
    double wall_seconds_ = 0.0;
    unsigned jobs_used_ = 1;
};

/**
 * Calls @p fn(i) for every i in [0, @p count) on a worker pool of
 * opts.jobs threads (at most @p count) and returns the number used.
 *
 * Indices are pulled from an atomic cursor. The first exception
 * cancels the pool — workers finish their current index, take nothing
 * new — and is rethrown on the caller's thread once all workers
 * joined. One worker runs every index in order on the calling thread.
 */
unsigned forEachIndex(std::size_t count, const RunnerOptions &opts,
                      const std::function<void(std::size_t)> &fn);

/**
 * Runs every job's spec (exp::run) on forEachIndex's pool. Each result
 * lands at its job's index with the job's labels, its stats and its
 * host wall time.
 */
SweepResult runJobs(const std::vector<Job> &jobs,
                    const RunnerOptions &opts = {});

/** Expands @p spec and runs the jobs. */
SweepResult runSweep(const SweepSpec &spec,
                     const RunnerOptions &opts = {});

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_RUNNER_HH

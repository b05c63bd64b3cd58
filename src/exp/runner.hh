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

#include <string>
#include <vector>

#include "exp/sweep.hh"
#include "iommu/iommu.hh"
#include "iommu/prefetch/translation_prefetcher.hh"
#include "sim/audit.hh"
#include "sim/ticks.hh"
#include "trace/trace.hh"
#include "vm/gmmu.hh"

namespace gpuwalk::exp {

/** Execution knobs for a sweep. */
struct RunnerOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency. */
    unsigned jobs = 0;

    /**
     * Walk-lifecycle tracing applied to every run of the sweep
     * (runSweep copies it into the spec's base config before
     * expansion). Observation-only: simulated results are unchanged.
     */
    trace::TraceConfig trace;

    /**
     * Conservation auditing applied to every run of the sweep (same
     * copy-into-base mechanism as tracing). Observation-only; each
     * run's violations land in its RunStats audit fields.
     */
    sim::AuditConfig audit;

    /**
     * Demand paging / oversubscription applied to every run of the
     * sweep (same copy-into-base mechanism). NOT observation-only:
     * faulting runs simulate different machines than resident runs,
     * so this only applies when gmmu.enabled is set.
     */
    vm::GmmuConfig gmmu;

    /**
     * Translation prefetching applied to every run of the sweep (same
     * copy-into-base mechanism). NOT observation-only: speculative
     * walks change TLB contents and walker occupancy, so this only
     * applies when prefetch.kind != Off.
     */
    iommu::PrefetchConfig prefetch;

    /**
     * Wasp wavefront scheduling applied to every run of the sweep
     * (same copy-into-base mechanism). NOT observation-only: leaders
     * reorder issue and add speculative walks, so the policy + knobs
     * copy in only when wasp is true.
     */
    bool wasp = false;
    unsigned waspLeaders = 1;
    sim::Cycles waspDistanceCycles = 2048;

    /**
     * Speculative-walk admission applied to every run of the sweep
     * (same mechanism; copies in only when != Idle, the default).
     */
    iommu::SpecAdmission specAdmission = iommu::SpecAdmission::Idle;
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
     * label typo is a bench bug, not a runtime condition).
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
 * Executes @p jobs on a worker pool.
 *
 * Work is pulled from an atomic cursor; each result is stored at its
 * job index. The first exception cancels the pool — workers finish
 * their current job, take nothing new — and is rethrown on the
 * caller's thread once all workers joined. Per-job host wall time is
 * recorded on every completed result.
 */
SweepResult runJobs(const std::vector<Job> &jobs,
                    const RunnerOptions &opts = {});

/** Expands @p spec and runs the jobs. */
SweepResult runSweep(const SweepSpec &spec,
                     const RunnerOptions &opts = {});

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_RUNNER_HH

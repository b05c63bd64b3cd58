/**
 * @file
 * Declarative experiment sweeps.
 *
 * A SweepSpec names the axes of an experiment — workloads x scheduling
 * policies x config variants x seeds — and expands into a flat list of
 * independent jobs, each of which builds its own System when executed.
 * The figure/table experiments declare their sweep instead of hand-rolling
 * nested loops; the ParallelRunner executes the expansion on a thread
 * pool.
 */

#ifndef GPUWALK_EXP_SWEEP_HH
#define GPUWALK_EXP_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/run.hh"

namespace gpuwalk::exp {

/**
 * One point on the sweep's config axis: a label plus a mutation of the
 * base configuration and/or workload parameters (e.g. "2M pages",
 * "1024-entry L2 TLB"). A null @ref apply leaves the base untouched.
 */
struct ConfigVariant
{
    std::string name;
    std::function<void(system::SystemConfig &,
                       workload::WorkloadParams &)>
        apply;
};

/**
 * One executable unit of a sweep: the labels that identify its result
 * row plus the simulation it runs. The runner runs @ref spec on a
 * worker thread (exp::run) and copies the labels onto the result.
 */
struct Job
{
    std::string workload;
    std::string scheduler;
    std::string variant;
    std::uint64_t seed = 0;
    RunSpec spec{};
};

/**
 * @p job's Chrome-trace path: @p base ("" stays "") with the job's
 * labels inserted before its extension as
 * "-<workload>-<scheduler>[-<variant>]-s<seed>". The labels are unique
 * within a sweep, so every run gets its own file. A label character
 * outside [A-Za-z0-9._+-] becomes '_'.
 */
std::string traceFilePath(const std::string &base, const Job &job);

/**
 * The job labelled (@p workload, @p scheduler, @p variant, @p seed)
 * that runs @p spec. A traced spec's trace.outPath becomes this job's
 * own file (traceFilePath()); every job is built here, so a sweep
 * names its trace files in one place.
 */
Job makeJob(std::string workload, std::string scheduler,
            std::string variant, std::uint64_t seed, RunSpec spec);

/**
 * The declarative description of one experiment: axes over a base
 * configuration. expand() produces the cross product in a fixed,
 * deterministic order (variant-major, then workload, scheduler, seed)
 * so result rows line up with the paper's table layouts regardless of
 * execution order or thread count.
 */
struct SweepSpec
{
    system::SystemConfig base;
    workload::WorkloadParams params;

    std::vector<std::string> workloads;
    std::vector<core::SchedulerKind> schedulers{
        core::SchedulerKind::Fcfs};
    /** Empty means a single unnamed variant of the base config. */
    std::vector<ConfigVariant> variants;
    /** Empty means a single run at params.seed / base.schedulerSeed. */
    std::vector<std::uint64_t> seeds;

    SweepSpec() : SweepSpec(system::SystemConfig::baseline()) {}

    explicit SweepSpec(const system::SystemConfig &base_cfg)
        : base(base_cfg), params(experimentParams())
    {}

    std::vector<Job> expand() const;
};

/** Concatenates job lists (heterogeneous sweeps run as one pool). */
std::vector<Job> concat(std::vector<Job> a, std::vector<Job> b);

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_SWEEP_HH

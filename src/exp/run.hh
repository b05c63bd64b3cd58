/**
 * @file
 * Single-run primitives of the experiment subsystem: build one System,
 * run one (workload, scheduler, config) point, collect its statistics.
 *
 * Everything above this layer (sweeps, the parallel runner, reports)
 * composes these primitives; nothing below it knows experiments exist.
 */

#ifndef GPUWALK_EXP_RUN_HH
#define GPUWALK_EXP_RUN_HH

#include <cstdint>
#include <map>
#include <string>

#include "system/system.hh"

namespace gpuwalk::exp {

/**
 * One (workload, scheduler, config-variant, seed) simulation outcome.
 *
 * The label fields identify the sweep-grid point the result belongs
 * to; @ref extra carries experiment-specific scalars (e.g. prefetch
 * counts, mapped footprints) that RunStats does not model.
 */
struct RunResult
{
    std::string workload;
    std::string scheduler;                ///< policy label (toString)
    std::string variant;                  ///< config-variant label
    std::uint64_t seed = 0;
    system::RunStats stats;
    std::map<std::string, double> extra;  ///< experiment-specific scalars
    double wallSeconds = 0.0;             ///< host time, runner-filled
};

/**
 * Runs the loaded @p sys to its end and, when it is traced to a file,
 * writes its Chrome trace to its config's trace.outPath as given (a
 * sweep names one per job with traceFilePath()). Every run, whether
 * runOne() builds it or an experiment or the CLI does by hand, ends
 * here, so each traced run leaves its own file.
 */
system::RunStats runAndWriteTrace(system::System &sys);

/**
 * Builds a fresh System with @p cfg, loads @p workload, runs it with
 * runAndWriteTrace(). Every run is fully independent (own page table,
 * TLBs, RNG streams), which is what lets the ParallelRunner execute
 * runs concurrently without perturbing their simulated behaviour.
 */
RunResult runOne(const system::SystemConfig &cfg,
                 const std::string &workload,
                 const workload::WorkloadParams &params);

/** Convenience: @p cfg with its scheduler swapped to @p kind. */
system::SystemConfig withScheduler(system::SystemConfig cfg,
                                   core::SchedulerKind kind);

/** @p path with @p suffix inserted before its extension:
 *  ("out/t.json", "-fcfs") -> "out/t-fcfs.json". */
std::string insertPathSuffix(const std::string &path,
                             const std::string &suffix);

/**
 * The Chrome-trace path of one sweep job: @p base with the job's
 * labels inserted before its extension as
 * "-<workload>-<scheduler>[-<variant>]-s<seed>". The labels are unique
 * within a sweep, so every run gets its own file. A label character
 * outside [A-Za-z0-9._+-] becomes '_'.
 */
std::string traceFilePath(const std::string &base,
                          const std::string &workload,
                          const std::string &scheduler,
                          const std::string &variant, std::uint64_t seed);

/**
 * The default experiment workload shape. Smaller than the paper's
 * full applications (simulation budget), but big enough to exercise
 * TLB thrashing and walker contention at Table II footprints.
 */
workload::WorkloadParams experimentParams();

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_RUN_HH

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
    core::SchedulerKind schedulerKind = core::SchedulerKind::Fcfs;
    system::RunStats stats;
    std::map<std::string, double> extra;  ///< experiment-specific scalars
    double wallSeconds = 0.0;             ///< host time, runner-filled
};

/**
 * Builds a fresh System with @p cfg, loads @p workload, runs it.
 * Every run is fully independent (own page table, TLBs, RNG streams),
 * which is what lets the ParallelRunner execute runs concurrently
 * without perturbing their simulated behaviour.
 */
RunResult runOne(const system::SystemConfig &cfg,
                 const std::string &workload,
                 const workload::WorkloadParams &params);

/** Convenience: @p cfg with its scheduler swapped to @p kind. */
system::SystemConfig withScheduler(system::SystemConfig cfg,
                                   core::SchedulerKind kind);

/**
 * The Chrome-trace output path runOne writes for one run: the
 * configured cfg.trace.outPath uniquified with the workload,
 * scheduler, a config-fingerprint prefix (distinguishes variants) and
 * the seed, so every run of a sweep gets its own file.
 */
std::string traceFilePath(const system::SystemConfig &cfg,
                          const std::string &workload,
                          std::uint64_t seed);

/**
 * The default experiment workload shape. Smaller than the paper's
 * full applications (simulation budget), but big enough to exercise
 * TLB thrashing and walker contention at Table II footprints.
 */
workload::WorkloadParams experimentParams();

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_RUN_HH

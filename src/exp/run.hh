/**
 * @file
 * Single-run primitives of the experiment subsystem: the one path that
 * builds, loads, runs and traces a System (RunSpec, build(), run()).
 *
 * Everything above this layer (sweeps, the parallel runner, reports)
 * composes these primitives; nothing below it knows experiments exist.
 */

#ifndef GPUWALK_EXP_RUN_HH
#define GPUWALK_EXP_RUN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "system/system.hh"
#include "workload/tenant_mix.hh"

namespace gpuwalk::exp {

/**
 * One (workload, scheduler, config-variant, seed) simulation outcome.
 *
 * The label fields identify the sweep-grid point the result belongs
 * to.
 */
struct RunResult
{
    std::string workload;
    std::string scheduler;                ///< policy label (toString)
    std::string variant;                  ///< config-variant label
    std::uint64_t seed = 0;
    system::RunStats stats;
    double wallSeconds = 0.0;             ///< host time, runner-filled
};

/** One workload of a run: a registry workload generated from
 *  @ref params, or a gpuwalk-trace v1 file replayed. */
struct Load
{
    std::string workload{};            ///< registry abbreviation
    workload::WorkloadParams params{};
    std::string replay{};              ///< trace file; replaces workload
    std::string saveTrace{};           ///< writes the generated trace
    unsigned appId = 0;
    bool newContext = false;           ///< own address space (tenant)
    sim::Tick arrival = 0;             ///< 0 = loaded before start
    std::uint32_t weight = 1;          ///< weighted-share weight
};

/** A whole simulation: the machine and what it loads, in order. */
struct RunSpec
{
    system::SystemConfig cfg;
    std::vector<Load> loads;
};

/** Tenant i of @p specs as app i in context i: the first tenant in the
 *  default context, every other one in a new context of its own. */
std::vector<Load> tenantLoads(const std::vector<workload::TenantSpec> &specs);

/**
 * Builds the System @p spec describes, loaded in load order: a new
 * context is created just before its workload is generated or mapped,
 * at the load's page size. A weight above 1 sets its context's
 * qos.shareWeights entry (the others 1).
 */
std::unique_ptr<system::System> build(const RunSpec &spec);

/** Runs the loaded @p sys to its end and, when it is traced to a
 *  file, writes its Chrome trace to its config's trace.outPath. */
system::RunStats runAndWriteTrace(system::System &sys);

/** build() plus runAndWriteTrace(). Every run is independent (own
 *  page table, TLBs, RNG streams), so runs may execute concurrently. */
system::RunStats run(const RunSpec &spec);

/** Convenience: @p cfg with its scheduler swapped to @p kind. */
system::SystemConfig withScheduler(system::SystemConfig cfg,
                                   core::SchedulerKind kind);

/** @p path with @p suffix inserted before its extension:
 *  ("out/t.json", "-fcfs") -> "out/t-fcfs.json". */
std::string insertPathSuffix(const std::string &path,
                             const std::string &suffix);

/**
 * The default experiment workload shape. Smaller than the paper's
 * full applications (simulation budget), but big enough to exercise
 * TLB thrashing and walker contention at Table II footprints.
 */
workload::WorkloadParams experimentParams();

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_RUN_HH

/**
 * @file
 * The gpuwalk flag parser: one table of flags for both commands, the
 * single run (`gpuwalk [flags]`) and the experiment sweep
 * (`gpuwalk sweep <name> [flags]`). Flags map straight onto the
 * SystemConfig and WorkloadParams a run or sweep starts from. A sweep
 * accepts only the trace, audit, prefetch and demand-paging flags;
 * the hardware, workload and scheduler flags are single-run only, and
 * an experiment rejects a flag for a field it sweeps itself
 * (Experiment::axes), so every flag a sweep accepts reaches every run.
 *
 * Both "--flag=value" and "--flag value" are accepted. Unknown flags,
 * flags that do not apply to the command, and malformed numbers are
 * fatal() before anything is simulated.
 */

#ifndef GPUWALK_EXP_CLI_HH
#define GPUWALK_EXP_CLI_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/run.hh"
#include "exp/runner.hh"

namespace gpuwalk::exp {

/** Largest --fault-latency and --migration-latency: 10^12 ticks, one
 *  simulated second per fault batch or page, far from wrapping the
 *  64-bit tick. */
inline constexpr std::uint64_t maxLatencyTicks = 1'000'000'000'000;

/** Largest --trace-ring capacity in events (2^24; the default is
 *  2^20). The ring is allocated up front. */
inline constexpr std::uint64_t maxTraceRing = std::uint64_t{1} << 24;

/** Largest --prefetch-degree: the SPP candidate list grows with it. */
inline constexpr unsigned maxPrefetchDegree = 64;

/** Largest --tenants: each tenant takes one 16-bit ASID. */
inline constexpr unsigned maxTenants = tlb::maxContexts;

/** Which gpuwalk command the flags belong to. */
enum class Command
{
    Run,    ///< gpuwalk [flags]: one workload, or --compare
    Sweep,  ///< gpuwalk sweep <name> [flags]: one experiment
};

/** Everything the flags say, with defaults for what they leave out. */
struct CliOptions
{
    /** The machine every simulation of the command starts from. */
    system::SystemConfig cfg = system::SystemConfig::baseline();
    /** The workload shape of a single run (Run only). */
    workload::WorkloadParams params = experimentParams();
    RunnerOptions runner;
    std::string jsonPath;    ///< "" = no JSON output
    bool help = false;
    /** The flags given, in command-line order. */
    std::vector<std::string_view> given;

    // Run only.
    std::string workload = "MVT";
    unsigned tenants = 1;    ///< > 1 = multi-tenant mix
    double churnFraction = 0.0;
    bool alternateWeights = false;
    bool compare = false;
    bool dumpStats = false;
    bool quiet = false;
    bool listWorkloads = false;

    // Sweep only.
    std::string experiment;  ///< the positional experiment name
    bool list = false;
};

/**
 * Parses @p args (the arguments after the program name, and after
 * "sweep" for Command::Sweep).
 */
CliOptions parseCli(Command command, const std::vector<std::string> &args);

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_CLI_HH

/**
 * @file
 * The flag surface every figure/table bench shares: --jobs for the
 * parallel runner, --json for structured results, --help. Benches call
 * parseBenchArgs() first thing in main(); anything unrecognized is a
 * fatal error so typos never silently run the default sweep.
 */

#ifndef GPUWALK_EXP_BENCH_CLI_HH
#define GPUWALK_EXP_BENCH_CLI_HH

#include <string>

#include "exp/runner.hh"

namespace gpuwalk::exp {

/** Parsed common bench flags. */
struct BenchOptions
{
    RunnerOptions runner;
    std::string jsonPath;  ///< empty = no JSON output
};

/**
 * Parses --jobs[=]N, --json[=]PATH, --trace-out[=]PATH,
 * --trace-ring[=]N, --audit, --audit-interval[=]N, the demand-paging
 * knobs (--oversubscription[=]R, --fault-latency[=]N,
 * --migration-latency[=]N, --fault-policy[=]P, --gmmu-batch[=]N,
 * --gmmu-evict[=]P, --no-contiguity), --help. Both
 * "--flag=value" and "--flag value" spellings are accepted. --help
 * prints @p id / @p description plus the flag reference and exits;
 * unknown flags are fatal.
 */
BenchOptions parseBenchArgs(int argc, char **argv,
                            const std::string &id,
                            const std::string &description);

} // namespace gpuwalk::exp

#endif // GPUWALK_EXP_BENCH_CLI_HH

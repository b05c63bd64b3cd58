#include "exp/run.hh"

#include <algorithm>
#include <cctype>

#include "trace/chrome_export.hh"

namespace gpuwalk::exp {

std::string
insertPathSuffix(const std::string &path, const std::string &suffix)
{
    const auto slash = path.find_last_of('/');
    auto dot = path.find_last_of('.');
    if (dot == std::string::npos
        || (slash != std::string::npos && dot < slash)) {
        dot = path.size();
    }
    return path.substr(0, dot) + suffix + path.substr(dot);
}

std::string
traceFilePath(const std::string &base, const std::string &workload,
              const std::string &scheduler, const std::string &variant,
              std::uint64_t seed)
{
    std::string suffix;
    for (const std::string *label : {&workload, &scheduler, &variant}) {
        if (!label->empty())
            suffix += "-" + *label;
    }
    std::replace_if(
        suffix.begin(), suffix.end(),
        [](unsigned char c) {
            return !std::isalnum(c) && c != '.' && c != '_' && c != '+'
                   && c != '-';
        },
        '_');
    return insertPathSuffix(base, suffix + "-s" + std::to_string(seed));
}

system::RunStats
runAndWriteTrace(system::System &sys)
{
    system::RunStats stats = sys.run();
    const std::string &path = sys.config().trace.outPath;
    if (sys.tracer() && !path.empty())
        trace::writeChromeTraceFile(path, *sys.tracer());
    return stats;
}

RunResult
runOne(const system::SystemConfig &cfg, const std::string &workload,
       const workload::WorkloadParams &params)
{
    system::System sys(cfg);
    sys.loadBenchmark(workload, params);
    RunResult result;
    result.workload = workload;
    result.scheduler = core::toString(cfg.scheduler);
    result.seed = params.seed;
    result.stats = runAndWriteTrace(sys);
    return result;
}

system::SystemConfig
withScheduler(system::SystemConfig cfg, core::SchedulerKind kind)
{
    cfg.scheduler = kind;
    return cfg;
}

workload::WorkloadParams
experimentParams()
{
    workload::WorkloadParams params;
    params.wavefronts = 256;              // oversubscribed; 2 resident/CU
    params.instructionsPerWavefront = 48;
    params.seed = 42;
    params.footprintScale = 1.0;          // Table II footprints
    params.computeCycles = 200;           // base; scaled per benchmark
    return params;
}

} // namespace gpuwalk::exp

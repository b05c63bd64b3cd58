#include "exp/run.hh"

#include <algorithm>

#include "trace/chrome_export.hh"
#include "workload/registry.hh"
#include "workload/trace_io.hh"

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

system::RunStats
runAndWriteTrace(system::System &sys)
{
    system::RunStats stats = sys.run();
    const std::string &path = sys.config().trace.outPath;
    if (sys.tracer() && !path.empty())
        trace::writeChromeTraceFile(path, *sys.tracer());
    return stats;
}

std::vector<Load>
tenantLoads(const std::vector<workload::TenantSpec> &specs)
{
    std::vector<Load> loads;
    for (unsigned i = 0; i < specs.size(); ++i) {
        loads.push_back({.workload = specs[i].workload,
                         .params = specs[i].params,
                         .appId = i,
                         .newContext = i > 0,
                         .arrival = specs[i].arrivalTick,
                         .weight = specs[i].weight});
    }
    return loads;
}

std::unique_ptr<system::System>
build(const RunSpec &spec)
{
    // The System copies its config, so the weights go in first. New
    // contexts are numbered 1, 2, ... in load order.
    system::SystemConfig cfg = spec.cfg;
    const auto contexts =
        1 + std::ranges::count(spec.loads, true, &Load::newContext);
    tlb::ContextId next_ctx = 1;
    for (const Load &load : spec.loads) {
        const auto ctx = load.newContext ? next_ctx++ : tlb::defaultContext;
        if (load.weight > 1) {
            cfg.qos.shareWeights.resize(contexts, 1);
            cfg.qos.shareWeights[ctx] = load.weight;
        }
    }

    auto sys = std::make_unique<system::System>(cfg);
    for (const Load &load : spec.loads) {
        const auto ctx =
            load.newContext ? sys->createContext() : tlb::defaultContext;
        vm::AddressSpace &as = sys->addressSpaceOf(ctx);
        as.useLargePages(load.params.useLargePages);
        gpu::GpuWorkload wl;
        if (load.replay.empty()) {
            wl = workload::makeWorkload(load.workload)
                     ->generate(as, load.params);
            if (!load.saveTrace.empty())
                workload::saveTraceFile(load.saveTrace, wl);
        } else {
            wl = workload::loadTraceFile(load.replay);
            // External traces reference raw virtual addresses: map them.
            workload::mapTraceAddresses(as, wl);
        }
        sys->loadWorkload(std::move(wl), load.appId, ctx, load.arrival);
    }
    return sys;
}

system::RunStats
run(const RunSpec &spec)
{
    return runAndWriteTrace(*build(spec));
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

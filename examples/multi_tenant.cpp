/**
 * @file
 * Multi-tenant GPU sharing: the QoS scenario the paper's conclusion
 * proposes as follow-on work.
 *
 * Co-schedules a translation-heavy irregular application (the
 * "aggressor") with a translation-light regular one (the "victim")
 * on one GPU, and reports each tenant's completion time under FCFS
 * and SIMT-aware walk scheduling, normalized to running alone.
 *
 * Usage: example_multi_tenant [aggressor] [victim]
 */

#include <iostream>
#include <string>

#include "exp/metrics.hh"
#include "exp/run.hh"
#include "exp/table.hh"

using namespace gpuwalk;

namespace {

workload::WorkloadParams
tenantParams()
{
    auto params = exp::experimentParams();
    params.wavefronts = 96;
    params.footprintScale = 0.25; // keep the example snappy
    return params;
}

sim::Tick
soloRuntime(core::SchedulerKind kind, const std::string &app)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = kind;
    return exp::run({cfg, {{app, tenantParams()}}}).runtimeTicks;
}

std::pair<sim::Tick, sim::Tick>
corunFinishTicks(core::SchedulerKind kind, const std::string &aggressor,
                 const std::string &victim)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler = kind;
    const auto stats = exp::run(
        {cfg,
         {{aggressor, tenantParams()},
          {.workload = victim, .params = tenantParams(), .appId = 1}}});
    return {stats.appFinishTicks.at(0), stats.appFinishTicks.at(1)};
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string aggressor = argc > 1 ? argv[1] : "MVT";
    const std::string victim = argc > 2 ? argv[2] : "HOT";

    std::cout << "Multi-tenant GPU: " << aggressor
              << " (translation-heavy) + " << victim
              << " (translation-light)\n"
              << "---------------------------------------------------"
              << "\n";

    const auto aggr_solo =
        soloRuntime(core::SchedulerKind::Fcfs, aggressor);
    const auto victim_solo =
        soloRuntime(core::SchedulerKind::Fcfs, victim);

    for (auto kind : {core::SchedulerKind::Fcfs,
                      core::SchedulerKind::SimtAware}) {
        const auto [aggr, vict] =
            corunFinishTicks(kind, aggressor, victim);
        std::cout << core::toString(kind) << ":\n"
                  << "  " << victim << " slowdown vs solo: "
                  << exp::TablePrinter::fmt(
                         static_cast<double>(vict)
                             / static_cast<double>(victim_solo),
                         2)
                  << "x\n"
                  << "  " << aggressor << " slowdown vs solo: "
                  << exp::TablePrinter::fmt(
                         static_cast<double>(aggr)
                             / static_cast<double>(aggr_solo),
                         2)
                  << "x\n";
    }

    std::cout << "\nThe victim's few page walks are always the "
                 "shortest jobs, so SIMT-aware scheduling\nshields it "
                 "from the aggressor's walk floods without an explicit "
                 "QoS mechanism —\nthe direction the paper's "
                 "conclusion points follow-on work toward.\n";
    return 0;
}

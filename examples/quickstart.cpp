/**
 * @file
 * Quickstart: simulate one irregular benchmark (MVT) under the
 * baseline FCFS page-walk scheduler and the paper's SIMT-aware
 * scheduler, and report the speedup.
 *
 * Usage: example_quickstart [workload] [scale]
 *   workload  Table II abbreviation (default MVT)
 *   scale     footprint scale, 1.0 = paper size (default 0.25)
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "exp/metrics.hh"
#include "exp/run.hh"
#include "exp/table.hh"
#include "workload/registry.hh"

using namespace gpuwalk;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "MVT";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.25;

    workload::WorkloadParams params = exp::experimentParams();
    params.footprintScale = scale;

    auto cfg = system::SystemConfig::baseline();

    std::cout << "GPUWalk quickstart\n"
              << "------------------\n"
              << "workload: " << workload << " (footprint scale "
              << scale << ")\n\n";

    std::cout << "running with FCFS page-walk scheduling...\n";
    const auto fcfs = exp::run(
        {exp::withScheduler(cfg, core::SchedulerKind::Fcfs),
         {{workload, params}}});

    std::cout << "running with SIMT-aware page-walk scheduling...\n\n";
    const auto simt = exp::run(
        {exp::withScheduler(cfg, core::SchedulerKind::SimtAware),
         {{workload, params}}});

    auto report = [](const char *name, const system::RunStats &s) {
        std::cout << name << ":\n"
                  << "  runtime           "
                  << s.runtimeTicks / 500 << " GPU cycles\n"
                  << "  CU stall          " << s.stallTicks / 500
                  << " GPU cycles (summed)\n"
                  << "  page walks        " << s.walkRequests << "\n"
                  << "  walk interleaving "
                  << s.walks.interleavedFraction * 100.0 << "% of "
                  << "multi-walk instructions\n";
    };
    report("FCFS", fcfs);
    report("SIMT-aware", simt);

    std::cout << "\nspeedup (SIMT-aware over FCFS): "
              << exp::speedup(simt, fcfs) << "x\n"
              << "(the paper reports ~1.3x average across its six "
                 "irregular workloads)\n";
    return 0;
}

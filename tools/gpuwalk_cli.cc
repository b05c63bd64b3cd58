/**
 * @file
 * The gpuwalk command-line simulator driver.
 *
 * One binary to run any (workload, scheduler, configuration)
 * combination, dump component statistics (text or JSON), compare
 * schedulers, and run the paper's tables, figures and ablations
 * (`gpuwalk sweep <name>`) — the front door a downstream user scripts
 * experiments through.
 *
 * Run `gpuwalk --help` for the full flag reference.
 */

#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/cli.hh"
#include "exp/metrics.hh"
#include "exp/run.hh"
#include "exp/runner.hh"
#include "exp/table.hh"
#include "experiments/experiments.hh"
#include "sim/logging.hh"
#include "trace/digest.hh"
#include "workload/registry.hh"
#include "workload/tenant_mix.hh"

using namespace gpuwalk;

namespace {

void
printHelp()
{
    std::cout <<
        R"(gpuwalk — GPU page-table-walk scheduling simulator

Usage: gpuwalk [flags]                 simulate one workload
       gpuwalk sweep <name> [flags]    run one paper table, figure or
                                       ablation (see Sweeps below)

Workload selection:
  --workload=NAME         Table II benchmark (XSB MVT ATX NW BIC GEV
                          SSP MIS CLR BCK KMN HOT)
  --list-workloads        print the benchmark table and exit

Scheduler:
  --scheduler=NAME        fcfs | random | sjf-only | batch-only |
                          simt-aware | weighted-share
                          (default: fcfs)
  --compare               run fcfs AND simt-aware, report speedup
  --jobs=N                worker threads for --compare and sweeps
                          (default: all cores; results are identical
                          at any N)
  --seed=N                RNG seed (random scheduler + workloads)

Workload shape:
  --wavefronts=N          total wavefronts, N >= 1  (default: 256)
  --instructions=N        per wavefront, N >= 1     (default: 48)
  --footprint-scale=X     fraction of Table II size (default: 1.0)
  --compute-cycles=N      base ALU gap, cycles, at most 2^32-1
                                                    (default: 200)
  --large-pages           back buffers with 2 MB pages

Multi-tenant (a generated mix; no --workload or --large-pages):
  --tenants=N             run an N-tenant mix (2 <= N <= 65536, one
                          16-bit ASID each): each tenant gets its own
                          address space and a benchmark from the
                          tenant-mix generator; --wavefronts /
                          --instructions / --seed shape every tenant
  --churn-fraction=X      fraction of tenants arriving mid-run
  --alternate-weights     odd tenants get weighted-share weight 2

Hardware overrides (baseline = the paper's Table I):
  --cus=N                 compute units             (default: 8)
  --wavefronts-per-cu=N   resident wavefront slots  (default: 2)
  --l2tlb-entries=N       shared L2 TLB             (default: 512)
  --walkers=N             IOMMU page table walkers  (default: 8)
  --buffer-entries=N      IOMMU walk buffer         (default: 256)
  --pwc-entries=N         PWC entries per level     (default: 16)
  --no-pwc-pinning        disable counter-pinned PWC replacement
  --no-walk-cache         walker PTEs go straight to DRAM
  --aging-threshold=N     SIMT-aware starvation bound
  --prefetch=P            translation prefetch policy: off | spp
                          (signature-path lookahead into idle walkers)
  --prefetch-degree=N     max speculative walks per trigger, at
                          most 64             (default: 4)
  --virtual-l1            virtually-addressed L1 data caches
                          (translate on L1 miss, Yoon et al.;
                          excludes --tenants)

Demand paging (any flag enables the GMMU; excludes --large-pages):
  --oversubscription=R    pages fault in on first touch; resident
                          frames capped at R x the workload footprint
                          (R in (0,1]; R < 1 forces eviction)
  --fault-latency=N       host interrupt + runtime cost per fault
                          batch, ticks        (default: 2000000)
  --migration-latency=N   per-page CPU-GPU transfer cost, ticks
                                              (default: 400000)
                          Both latencies are at most 10^12 ticks
                          (1 simulated second).
  --gmmu-batch=N          max faults serviced per host round trip,
                          oldest first        (default: 8)
  --gmmu-evict=P          lru | random victim policy at the cap

Output:
  --stats                 dump all component statistics (text)
  --json=FILE             write component statistics as JSON;
                          --compare writes one file per scheduler
                          (FILE with -fcfs / -simt-aware inserted
                          before its extension)
  --trace-out=FILE        record the walk lifecycle and write a Chrome
                          trace_event JSON (chrome://tracing /
                          ui.perfetto.dev); --compare writes one file
                          per scheduler, named as for --json
  --trace-ring=N          trace ring-buffer capacity in events
                          (default 1Mi, at most 16Mi; oldest events
                          drop first)
  --audit                 check conservation invariants at teardown;
                          any violation is reported and makes the
                          exit status non-zero
  --audit-interval=N      additionally check every N ticks during the
                          run (implies --audit)
  --quiet                 suppress the run summary

Sweeps:
  gpuwalk sweep --list    list the experiments
  gpuwalk sweep NAME      run one and print its table(s); --json=FILE
                          writes the report, per-run stats included
  A sweep takes the prefetch, demand-paging, --trace-out,
  --trace-ring, --audit, --audit-interval, --jobs and --json flags
  above; they apply to every run of the experiment. An experiment
  rejects a flag it sweeps itself (e.g. --prefetch in
  ablation_prefetch). Hardware, workload, scheduler and single-run
  output flags do not apply.
  Every flag is accepted as --flag=value or --flag value.
)";
}

void
listWorkloads()
{
    std::cout << "benchmark  class      footprint(MB)  description\n";
    for (const auto &name : workload::allWorkloadNames()) {
        const auto info = workload::makeWorkload(name)->info();
        std::cout.width(11);
        std::cout << std::left << info.abbrev;
        std::cout.width(11);
        std::cout << (info.irregular ? "irregular" : "regular");
        std::cout.width(15);
        std::cout << info.footprintMB;
        std::cout << info.description << "\n";
    }
}

/** One simulation's outcome plus its deferred text/JSON dumps
 *  (captured into strings so --compare can run on worker threads and
 *  still print in order). */
struct CliRun
{
    system::RunStats stats;
    std::string statsDump;
    std::string componentJson;
};

/** The run the flags describe: the --tenants mix (shaped by the
 *  workload flags), or one generated workload. */
exp::RunSpec
runSpec(const exp::CliOptions &opt)
{
    if (opt.tenants > 1) {
        workload::TenantMixConfig mix;
        mix.numTenants = opt.tenants;
        mix.seed = opt.params.seed;
        mix.wavefrontsPerTenant = opt.params.wavefronts;
        mix.instructionsPerWavefront = opt.params.instructionsPerWavefront;
        mix.churnFraction = opt.churnFraction;
        mix.alternateWeights = opt.alternateWeights;
        return {opt.cfg,
                exp::tenantLoads(workload::generateTenantMix(mix))};
    }
    return {opt.cfg, {{.workload = opt.workload, .params = opt.params}}};
}

CliRun
simulate(const exp::RunSpec &spec, const exp::CliOptions &opt)
{
    const auto sys = exp::build(spec);
    CliRun run;
    run.stats = exp::runAndWriteTrace(*sys);

    if (opt.dumpStats) {
        std::ostringstream os;
        sys->dumpStats(os);
        run.statsDump = os.str();
    }
    if (!opt.jsonPath.empty()) {
        std::ostringstream os;
        os << "{\"gpu\": ";
        sys->gpu().stats().dumpJson(os);
        os << ", \"gpu_tlb\": ";
        sys->tlbs().stats().dumpJson(os);
        os << ", \"iommu\": ";
        sys->iommu().stats().dumpJson(os);
        os << ", \"dram\": ";
        sys->dram().stats().dumpJson(os);
        os << "}\n";
        run.componentJson = os.str();
    }
    return run;
}

/** Prints the run summary and any dumps, in the classic order, and
 *  writes the component JSON to @p json_path ("" writes none). */
void
reportRun(const system::SystemConfig &cfg, const exp::CliOptions &opt,
          const CliRun &run, const std::string &json_path)
{
    if (!opt.quiet) {
        const auto &stats = run.stats;
        std::cout << "scheduler          "
                  << core::toString(cfg.scheduler) << "\n"
                  << "runtime            " << stats.runtimeTicks / 500
                  << " GPU cycles\n"
                  << "instructions       " << stats.instructions << "\n"
                  << "page walks         " << stats.walkRequests << "\n"
                  << "CU stall cycles    " << stats.stallTicks / 500
                  << "\n"
                  << "walk interleaving  "
                  << exp::TablePrinter::fmt(
                         stats.walks.interleavedFraction * 100, 1)
                  << "% of multi-walk instructions\n";
        if (stats.traced) {
            std::cout << "trace digest       "
                      << trace::digestHex(stats.traceDigest) << " ("
                      << stats.traceEvents << " events, "
                      << stats.traceDropped << " dropped)\n";
        }
        if (stats.audited) {
            std::cout << "audit              " << stats.auditChecks
                      << " checks, " << stats.auditViolations
                      << " violations\n";
        }
        if (stats.gmmu.enabled) {
            std::cout << "far faults         " << stats.gmmu.faultsRaised
                      << " raised, " << stats.gmmu.batches
                      << " batches\n"
                      << "residency          peak "
                      << stats.gmmu.residentPeak << " / cap "
                      << stats.gmmu.frameCap << " pages, "
                      << stats.gmmu.pagesEvicted << " evicted, "
                      << stats.gmmu.promotions << " promoted\n";
        }
        for (const auto &t : stats.tenants) {
            std::cout << "tenant " << t.ctx << "           walks "
                      << t.walkRequests << ", finish "
                      << t.finishTick / 500 << " GPU cycles\n";
        }
    }
    if (opt.dumpStats)
        std::cout << run.statsDump;
    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os)
            sim::fatal("cannot open '", json_path, "'");
        os << run.componentJson;
    }
}

void
listExperiments()
{
    for (const auto &e : experiments::all()) {
        std::cout.width(26);
        std::cout << std::left << e.name << e.id << ": "
                  << e.description << "\n";
    }
}

/** gpuwalk sweep: runs one experiment from the parsed base config. */
int
sweepMain(const exp::CliOptions &opt)
{
    if (opt.help) {
        printHelp();
        return 0;
    }
    if (opt.list) {
        listExperiments();
        return 0;
    }
    if (opt.experiment.empty())
        sim::fatal("gpuwalk sweep needs an experiment name "
                   "(see gpuwalk sweep --list)");
    const auto *e = experiments::find(opt.experiment);
    if (!e)
        sim::fatal("unknown experiment '", opt.experiment,
                   "' (see gpuwalk sweep --list)");

    for (const auto axis : e->axes) {
        if (std::find(opt.given.begin(), opt.given.end(), axis)
            != opt.given.end()) {
            sim::fatal("--", axis, " does not apply to gpuwalk sweep ",
                       e->name, " (the experiment sets it per run)");
        }
    }

    const auto report = e->fn(*e, opt.cfg, opt.runner);
    report.render(std::cout);
    if (!opt.jsonPath.empty())
        report.writeJsonFile(opt.jsonPath);
    return 0;
}

/** gpuwalk [flags]: one simulation, or fcfs vs simt-aware. */
int
runMain(const exp::CliOptions &opt)
{
    if (opt.help) {
        printHelp();
        return 0;
    }
    if (opt.listWorkloads) {
        listWorkloads();
        return 0;
    }

    const auto spec = runSpec(opt);
    const auto &cfg = spec.cfg;
    if (!opt.compare) {
        const auto run = simulate(spec, opt);
        reportRun(cfg, opt, run, opt.jsonPath);
        return run.stats.auditViolations ? 1 : 0;
    }

    // Both schedulers on one worker pool; dumps are captured into
    // per-run slots so output order is independent of execution
    // order. Each scheduler writes its own --trace-out and --json
    // file: the second run would otherwise overwrite the first's.
    const std::array<core::SchedulerKind, 2> kinds{
        core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware};
    auto ownPath = [](const std::string &path, core::SchedulerKind kind) {
        return path.empty()
                   ? path
                   : exp::insertPathSuffix(path,
                                           "-" + core::toString(kind));
    };
    std::array<CliRun, 2> runs;
    exp::forEachIndex(kinds.size(), opt.runner, [&](std::size_t i) {
        auto run_spec = spec;
        run_spec.cfg = exp::withScheduler(cfg, kinds[i]);
        run_spec.cfg.trace.outPath = ownPath(cfg.trace.outPath, kinds[i]);
        runs[i] = simulate(run_spec, opt);
    });

    for (std::size_t i = 0; i < kinds.size(); ++i) {
        std::cout << "=== " << core::toString(kinds[i]) << " ===\n";
        reportRun(exp::withScheduler(cfg, kinds[i]), opt, runs[i],
                  ownPath(opt.jsonPath, kinds[i]));
    }
    std::cout << "\nspeedup (simt-aware over fcfs): "
              << exp::TablePrinter::fmt(
                     exp::speedup(runs[1].stats, runs[0].stats))
              << "\n";
    // Audit violations (already warn()ed as they were recorded) make
    // the whole invocation fail, for scripting.
    return runs[0].stats.auditViolations || runs[1].stats.auditViolations
               ? 1
               : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args.front() == "sweep") {
        args.erase(args.begin());
        return sweepMain(exp::parseCli(exp::Command::Sweep, args));
    }
    return runMain(exp::parseCli(exp::Command::Run, args));
}

/**
 * @file
 * The gpuwalk command-line simulator driver.
 *
 * One binary to run any (workload, scheduler, configuration)
 * combination, dump component statistics (text or JSON), save/replay
 * workload traces, and compare schedulers — the front door a
 * downstream user scripts experiments through.
 *
 * Run `gpuwalk --help` for the full flag reference.
 */

#include <array>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/metrics.hh"
#include "exp/run.hh"
#include "exp/runner.hh"
#include "exp/table.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "trace/chrome_export.hh"
#include "trace/digest.hh"
#include "workload/registry.hh"
#include "workload/tenant_mix.hh"
#include "workload/trace_io.hh"

using namespace gpuwalk;

namespace {

/** Minimal --key=value / --flag parser. */
class Flags
{
  public:
    Flags(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                sim::fatal("unexpected argument '", arg,
                           "' (flags start with --; see --help)");
            arg = arg.substr(2);
            const auto eq = arg.find('=');
            if (eq == std::string::npos)
                values_[arg] = "true";
            else
                values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        }
    }

    bool
    has(const std::string &key)
    {
        consumed_.insert(key);
        return values_.count(key) > 0;
    }

    std::string
    get(const std::string &key, const std::string &fallback)
    {
        consumed_.insert(key);
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    std::uint64_t
    getUint(const std::string &key, std::uint64_t fallback)
    {
        consumed_.insert(key);
        auto it = values_.find(key);
        return it == values_.end()
                   ? fallback
                   : std::strtoull(it->second.c_str(), nullptr, 0);
    }

    double
    getDouble(const std::string &key, double fallback)
    {
        consumed_.insert(key);
        auto it = values_.find(key);
        return it == values_.end()
                   ? fallback
                   : std::strtod(it->second.c_str(), nullptr);
    }

    /** fatal() on any flag that no code path consumed. */
    void
    rejectUnknown() const
    {
        for (const auto &[key, value] : values_) {
            (void)value;
            if (!consumed_.count(key))
                sim::fatal("unknown flag --", key, " (see --help)");
        }
    }

  private:
    std::map<std::string, std::string> values_;
    std::set<std::string> consumed_;
};

void
printHelp()
{
    std::cout <<
        R"(gpuwalk — GPU page-table-walk scheduling simulator

Usage: gpuwalk [flags]

Workload selection (one of):
  --workload=NAME         Table II benchmark (XSB MVT ATX NW BIC GEV
                          SSP MIS CLR BCK KMN HOT)
  --load-trace=FILE       replay a gpuwalk-trace v1 file
  --list-workloads        print the benchmark table and exit

Scheduler:
  --scheduler=NAME        fcfs | random | sjf-only | batch-only |
                          simt-aware | oldest-job | srpt |
                          fair-share | token-bucket | weighted-share
                          (default: fcfs)
  --compare               run fcfs AND simt-aware, report speedup
  --jobs=N                worker threads for --compare
                          (default: all cores; results are identical
                          at any N)
  --seed=N                RNG seed (random scheduler + workloads)

Workload shape:
  --wavefronts=N          total wavefronts          (default: 256)
  --instructions=N        per wavefront             (default: 48)
  --footprint-scale=X     fraction of Table II size (default: 1.0)
  --compute-cycles=N      base ALU gap, cycles      (default: 200)
  --large-pages           back buffers with 2 MB pages

Multi-tenant (replaces --workload with a generated mix):
  --tenants=N             run an N-tenant mix: each tenant gets its
                          own address space (ASID) and a benchmark
                          from the tenant-mix generator; --wavefronts
                          / --instructions / --seed shape every tenant
  --churn-fraction=X      fraction of tenants arriving mid-run
  --alternate-weights     odd tenants get QoS weight 2
  --token-window=N        token-bucket window, scheduler dispatches
                          (default: 64)
  --token-quota=N         per-tenant dispatch quota per window
                          (default: 8)

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
  --prefetch=P            translation prefetch policy: off | next |
                          spp (signature-path lookahead); a bare
                          --prefetch means next (idle bandwidth only)
  --prefetch-degree=N     max speculative walks per trigger
                                              (default: 4)
  --wavefront-sched=P     rr | gto | wasp  (CU issue arbitration;
                          wasp de-staggers leader slots whose walks
                          are classed speculative at the IOMMU)
  --wasp-leaders=N        wasp: leader slots per CU   (default: 1)
  --wasp-distance=N       wasp: followers' first-issue delay, cycles
                                              (default: 2048)
  --spec-admission=P      speculative-walk admission: idle (default)
                          | reserved (dedicated walkers) | budget
                          (tokens per demand-dispatch window)
  --virtual-l1            virtually-addressed L1 data caches
                          (translate on L1 miss, Yoon et al.)

Demand paging (any flag enables the GMMU; excludes --large-pages):
  --oversubscription=R    pages fault in on first touch; resident
                          frames capped at R x the workload footprint
                          (R in (0,1]; R < 1 forces eviction)
  --fault-latency=N       host interrupt + runtime cost per fault
                          batch, ticks        (default: 2000000)
  --migration-latency=N   per-page CPU-GPU transfer cost, ticks
                                              (default: 400000)
  --fault-policy=P        fcfs | sjf fault service order
  --gmmu-batch=N          max faults serviced per host round trip
                                              (default: 8)
  --gmmu-evict=P          lru | random victim policy at the cap
  --no-contiguity         disable 2 MB contiguity reservation and
                          promotion

Output:
  --stats                 dump all component statistics (text)
  --json=FILE             write component statistics as JSON
  --save-trace=FILE       write the generated workload trace
  --trace-out=FILE        record the walk lifecycle and write a Chrome
                          trace_event JSON (chrome://tracing /
                          ui.perfetto.dev); --compare writes one file
                          per scheduler
  --trace-ring=N          trace ring-buffer capacity in events
                          (default 1Mi; oldest events drop first)
  --audit                 check conservation invariants at teardown;
                          any violation is reported and makes the
                          exit status non-zero
  --audit-interval=N      additionally check every N ticks during the
                          run (implies --audit)
  --quiet                 suppress the run summary
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

system::SystemConfig
configFromFlags(Flags &flags)
{
    auto cfg = system::SystemConfig::baseline();
    cfg.scheduler =
        core::schedulerKindFromString(flags.get("scheduler", "fcfs"));
    cfg.schedulerSeed = flags.getUint("seed", 1);
    cfg.gpu.numCus = static_cast<unsigned>(flags.getUint("cus", 8));
    cfg.gpuTlb.numCus = cfg.gpu.numCus;
    cfg.gpu.wavefrontsPerCu = static_cast<unsigned>(
        flags.getUint("wavefronts-per-cu", cfg.gpu.wavefrontsPerCu));
    cfg.gpuTlb.l2Entries = static_cast<unsigned>(
        flags.getUint("l2tlb-entries", cfg.gpuTlb.l2Entries));
    cfg.iommu.numWalkers = static_cast<unsigned>(
        flags.getUint("walkers", cfg.iommu.numWalkers));
    cfg.iommu.bufferEntries = static_cast<unsigned>(
        flags.getUint("buffer-entries", cfg.iommu.bufferEntries));
    cfg.iommu.pwc.entriesPerLevel = static_cast<unsigned>(
        flags.getUint("pwc-entries", cfg.iommu.pwc.entriesPerLevel));
    if (flags.has("no-pwc-pinning"))
        cfg.iommu.pwc.pinScoredEntries = false;
    if (flags.has("no-walk-cache"))
        cfg.iommu.useWalkCache = false;
    cfg.simt.agingThreshold =
        flags.getUint("aging-threshold", cfg.simt.agingThreshold);
    cfg.qos.tokenWindow = static_cast<unsigned>(
        flags.getUint("token-window", cfg.qos.tokenWindow));
    cfg.qos.tokenQuota = static_cast<unsigned>(
        flags.getUint("token-quota", cfg.qos.tokenQuota));
    if (flags.has("prefetch")) {
        const std::string p = flags.get("prefetch", "off");
        // A bare --prefetch predates the policy knob and meant the
        // next-page prefetcher; keep that spelling working.
        cfg.iommu.prefetch.kind =
            p == "true" ? iommu::PrefetchKind::NextPage
                        : iommu::prefetchKindFromString(p);
    }
    cfg.iommu.prefetch.degree = static_cast<unsigned>(
        flags.getUint("prefetch-degree", cfg.iommu.prefetch.degree));
    if (flags.has("virtual-l1"))
        cfg.gpu.virtualL1Cache = true;
    const std::string wf_sched = flags.get("wavefront-sched", "rr");
    if (wf_sched == "gto")
        cfg.gpu.wavefrontSched = gpu::WavefrontSchedPolicy::OldestFirst;
    else if (wf_sched == "wasp")
        cfg.gpu.wavefrontSched = gpu::WavefrontSchedPolicy::Wasp;
    else if (wf_sched != "rr")
        sim::fatal("unknown --wavefront-sched '", wf_sched,
                   "' (rr|gto|wasp)");
    cfg.gpu.waspLeaders = static_cast<unsigned>(
        flags.getUint("wasp-leaders", cfg.gpu.waspLeaders));
    cfg.gpu.waspDistanceCycles = static_cast<sim::Cycles>(
        flags.getUint("wasp-distance", cfg.gpu.waspDistanceCycles));
    cfg.iommu.specAdmission = iommu::specAdmissionFromString(
        flags.get("spec-admission", "idle"));
    if (flags.has("trace-out")) {
        cfg.trace.outPath = flags.get("trace-out", "");
        if (cfg.trace.outPath.empty())
            sim::fatal("--trace-out needs a file path");
        cfg.trace.enabled = true;
    }
    if (flags.has("trace-ring")) {
        const std::uint64_t n = flags.getUint("trace-ring", 0);
        if (n == 0)
            sim::fatal("--trace-ring needs a positive integer");
        cfg.trace.ringCapacity = static_cast<std::size_t>(n);
        cfg.trace.enabled = true;
    }
    if (flags.has("oversubscription")) {
        const double r = flags.getDouble("oversubscription", 1.0);
        if (r <= 0.0 || r > 1.0)
            sim::fatal("--oversubscription needs a ratio in (0, 1]");
        cfg.gmmu.oversubscription = r;
        cfg.gmmu.enabled = true;
    }
    if (flags.has("fault-latency")) {
        cfg.gmmu.faultLatency =
            static_cast<sim::Tick>(flags.getUint("fault-latency", 0));
        cfg.gmmu.enabled = true;
    }
    if (flags.has("migration-latency")) {
        cfg.gmmu.migrationLatency = static_cast<sim::Tick>(
            flags.getUint("migration-latency", 0));
        cfg.gmmu.enabled = true;
    }
    if (flags.has("fault-policy")) {
        const std::string p = flags.get("fault-policy", "fcfs");
        if (p == "fcfs")
            cfg.gmmu.order = vm::FaultOrder::Fcfs;
        else if (p == "sjf")
            cfg.gmmu.order = vm::FaultOrder::Sjf;
        else
            sim::fatal("unknown --fault-policy '", p, "' (fcfs|sjf)");
        cfg.gmmu.enabled = true;
    }
    if (flags.has("gmmu-batch")) {
        const std::uint64_t n = flags.getUint("gmmu-batch", 0);
        if (n == 0)
            sim::fatal("--gmmu-batch needs a positive integer");
        cfg.gmmu.batchSize = static_cast<unsigned>(n);
        cfg.gmmu.enabled = true;
    }
    if (flags.has("gmmu-evict")) {
        const std::string p = flags.get("gmmu-evict", "lru");
        if (p == "lru")
            cfg.gmmu.evict = vm::EvictPolicy::Lru;
        else if (p == "random")
            cfg.gmmu.evict = vm::EvictPolicy::Random;
        else
            sim::fatal("unknown --gmmu-evict '", p, "' (lru|random)");
        cfg.gmmu.enabled = true;
    }
    if (flags.has("no-contiguity")) {
        cfg.gmmu.contiguity = false;
        cfg.gmmu.enabled = true;
    }
    if (flags.has("audit"))
        cfg.audit.enabled = true;
    if (flags.has("audit-interval")) {
        const std::uint64_t n = flags.getUint("audit-interval", 0);
        if (n == 0)
            sim::fatal("--audit-interval needs a positive tick count");
        cfg.audit.interval = static_cast<sim::Tick>(n);
        cfg.audit.enabled = true;
    }
    return cfg;
}

/** "out.json" + "-fcfs" -> "out-fcfs.json" (for --compare traces). */
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

workload::WorkloadParams
paramsFromFlags(Flags &flags)
{
    auto params = exp::experimentParams();
    params.wavefronts = static_cast<unsigned>(
        flags.getUint("wavefronts", params.wavefronts));
    params.instructionsPerWavefront = static_cast<unsigned>(
        flags.getUint("instructions", params.instructionsPerWavefront));
    params.footprintScale =
        flags.getDouble("footprint-scale", params.footprintScale);
    params.computeCycles =
        flags.getUint("compute-cycles", params.computeCycles);
    params.seed = flags.getUint("seed", params.seed);
    params.useLargePages = flags.has("large-pages");
    return params;
}

/**
 * Everything one simulation needs, resolved from the flags up front.
 * The Flags accessors mutate their consumed-set, so flag reading must
 * finish before any job body can run on a worker thread.
 */
struct CliOptions
{
    std::string traceFile;   ///< "" = generate from the registry
    std::string workload;
    workload::WorkloadParams params;
    std::string saveTrace;   ///< "" = don't save
    bool dumpStats = false;
    std::string jsonPath;    ///< component-stats JSON ("" = off)
    unsigned tenants = 1;    ///< > 1 = multi-tenant mix
    double churnFraction = 0.0;
    bool alternateWeights = false;
};

CliOptions
optionsFromFlags(Flags &flags)
{
    CliOptions opt;
    if (flags.has("load-trace"))
        opt.traceFile = flags.get("load-trace", "");
    opt.workload = flags.get("workload", "MVT");
    opt.params = paramsFromFlags(flags);
    if (flags.has("save-trace"))
        opt.saveTrace = flags.get("save-trace", "");
    opt.dumpStats = flags.has("stats");
    if (flags.has("json"))
        opt.jsonPath = flags.get("json", "");
    opt.tenants = static_cast<unsigned>(flags.getUint("tenants", 1));
    opt.churnFraction = flags.getDouble("churn-fraction", 0.0);
    opt.alternateWeights = flags.has("alternate-weights");
    if (opt.tenants > 1 && !opt.traceFile.empty())
        sim::fatal("--tenants and --load-trace are exclusive "
                   "(the mix generator picks each tenant's workload)");
    return opt;
}

/** Mix shape for --tenants=N, derived from the workload flags. */
workload::TenantMixConfig
mixFromOptions(const CliOptions &opt)
{
    workload::TenantMixConfig mix;
    mix.numTenants = opt.tenants;
    mix.seed = opt.params.seed;
    mix.wavefrontsPerTenant = opt.params.wavefronts;
    mix.instructionsPerWavefront = opt.params.instructionsPerWavefront;
    mix.churnFraction = opt.churnFraction;
    mix.alternateWeights = opt.alternateWeights;
    return mix;
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

CliRun
simulate(const system::SystemConfig &base_cfg, const CliOptions &opt,
         bool save_trace)
{
    auto cfg = base_cfg;
    std::vector<workload::TenantSpec> specs;
    if (opt.tenants > 1) {
        specs = workload::generateTenantMix(mixFromOptions(opt));
        // Tenant i gets ContextId i, so spec weights map directly
        // onto the per-ContextId weight table; set before the System
        // copies its config.
        for (unsigned i = 0; i < specs.size(); ++i) {
            if (specs[i].weight > 1) {
                cfg.qos.shareWeights.resize(specs.size(), 1);
                cfg.qos.shareWeights[i] = specs[i].weight;
            }
        }
    }
    system::System sys(cfg);

    if (!specs.empty()) {
        for (unsigned i = 0; i < specs.size(); ++i) {
            const auto ctx =
                i == 0 ? tlb::defaultContext : sys.createContext();
            sys.loadBenchmarkInContext(specs[i].workload,
                                       specs[i].params, /*app_id=*/i,
                                       ctx, specs[i].arrivalTick);
        }
    } else if (!opt.traceFile.empty()) {
        auto wl = workload::loadTraceFile(opt.traceFile);
        // External traces reference raw virtual addresses: map them.
        workload::mapTraceAddresses(sys.addressSpace(), wl);
        sys.loadWorkload(std::move(wl));
    } else {
        auto gen = workload::makeWorkload(opt.workload);
        sys.addressSpace().useLargePages(opt.params.useLargePages);
        auto wl = gen->generate(sys.addressSpace(), opt.params);
        if (save_trace && !opt.saveTrace.empty())
            workload::saveTraceFile(opt.saveTrace, wl);
        sys.loadWorkload(std::move(wl));
    }

    CliRun run;
    run.stats = sys.run();

    if (sys.tracer() && !cfg.trace.outPath.empty())
        trace::writeChromeTraceFile(cfg.trace.outPath, *sys.tracer());

    if (opt.dumpStats) {
        std::ostringstream os;
        sys.dumpStats(os);
        run.statsDump = os.str();
    }
    if (!opt.jsonPath.empty()) {
        std::ostringstream os;
        os << "{\"gpu\": ";
        sys.gpu().stats().dumpJson(os);
        os << ", \"gpu_tlb\": ";
        sys.tlbs().stats().dumpJson(os);
        os << ", \"iommu\": ";
        sys.iommu().stats().dumpJson(os);
        os << ", \"dram\": ";
        sys.dram().stats().dumpJson(os);
        os << "}\n";
        run.componentJson = os.str();
    }
    return run;
}

/** Prints the run summary and any dumps, in the classic order. */
void
reportRun(const system::SystemConfig &cfg, const CliOptions &opt,
          const CliRun &run, bool quiet)
{
    if (!quiet) {
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
                      << " raised (" << stats.gmmu.faultsCoalesced
                      << " walks coalesced), " << stats.gmmu.batches
                      << " batches\n"
                      << "residency          peak "
                      << stats.gmmu.residentPeak << " / cap "
                      << stats.gmmu.frameCap << " pages, "
                      << stats.gmmu.pagesEvicted << " evicted, "
                      << stats.gmmu.promotions << " promoted\n";
        }
        if (cfg.gpu.wavefrontSched == gpu::WavefrontSchedPolicy::Wasp) {
            std::cout << "wasp               " << stats.leaderIssues
                      << " leader issues, " << stats.spec.leaderWalks
                      << " leader walks\n"
                      << "spec class         " << stats.spec.admitted
                      << " admitted, " << stats.spec.dispatched
                      << " dispatched, " << stats.spec.promoted
                      << " promoted, " << stats.spec.droppedStale
                      << " dropped\n";
        }
        for (const auto &t : stats.tenants) {
            std::cout << "tenant " << t.ctx << "           walks "
                      << t.walkRequests << ", finish "
                      << t.finishTick / 500 << " GPU cycles\n";
        }
    }
    if (opt.dumpStats)
        std::cout << run.statsDump;
    if (!opt.jsonPath.empty()) {
        std::ofstream os(opt.jsonPath);
        if (!os)
            sim::fatal("cannot open '", opt.jsonPath, "'");
        os << run.componentJson;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags(argc, argv);

    if (flags.has("help")) {
        printHelp();
        return 0;
    }
    if (flags.has("list-workloads")) {
        listWorkloads();
        flags.rejectUnknown();
        return 0;
    }

    const bool quiet = flags.has("quiet");
    exp::RunnerOptions runner;
    runner.jobs =
        static_cast<unsigned>(flags.getUint("jobs", 0));

    if (flags.has("compare")) {
        const auto cfg = configFromFlags(flags);
        const auto opt = optionsFromFlags(flags);
        flags.rejectUnknown();

        // Both schedulers as one job pool; dumps are captured into
        // per-run slots so output order is independent of execution
        // order.
        const std::array<core::SchedulerKind, 2> kinds{
            core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware};
        std::array<CliRun, 2> runs;
        std::vector<exp::Job> jobs;
        for (std::size_t i = 0; i < kinds.size(); ++i) {
            exp::Job job;
            job.workload =
                opt.traceFile.empty() ? opt.workload : opt.traceFile;
            job.scheduler = core::toString(kinds[i]);
            auto run_cfg = exp::withScheduler(cfg, kinds[i]);
            // One trace file per scheduler: both runs would otherwise
            // race on (and overwrite) the same --trace-out path.
            if (!run_cfg.trace.outPath.empty()) {
                run_cfg.trace.outPath = insertPathSuffix(
                    run_cfg.trace.outPath,
                    "-" + core::toString(kinds[i]));
            }
            job.body = [&runs, i, run_cfg, &opt] {
                // Only the first job writes --save-trace (both would
                // produce identical bytes; avoid the file race).
                runs[i] = simulate(run_cfg, opt, i == 0);
                exp::RunResult res;
                res.stats = runs[i].stats;
                return res;
            };
            jobs.push_back(std::move(job));
        }
        exp::runJobs(jobs, runner);

        std::cout << "=== fcfs ===\n";
        reportRun(exp::withScheduler(cfg, kinds[0]), opt, runs[0],
                  quiet);
        std::cout << "=== simt-aware ===\n";
        reportRun(exp::withScheduler(cfg, kinds[1]), opt, runs[1],
                  quiet);
        std::cout << "\nspeedup (simt-aware over fcfs): "
                  << exp::TablePrinter::fmt(
                         exp::speedup(runs[1].stats, runs[0].stats))
                  << "\n";
        // Audit violations (already warn()ed as they were recorded)
        // make the whole invocation fail, for scripting.
        return runs[0].stats.auditViolations
                       || runs[1].stats.auditViolations
                   ? 1
                   : 0;
    }

    const auto cfg = configFromFlags(flags);
    const auto opt = optionsFromFlags(flags);
    flags.rejectUnknown();
    const auto run = simulate(cfg, opt, true);
    reportRun(cfg, opt, run, quiet);
    return run.stats.auditViolations ? 1 : 0;
}

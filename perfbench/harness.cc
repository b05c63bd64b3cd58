/**
 * @file
 * Simulation harness of the repository benchmark (perfbench/run.py).
 *
 * Drives one named workload through the public system::System API, one
 * simulation at a time, and times every call into a layer from outside
 * as a host span. At exit it prints one JSON document holding each
 * simulation's raw statistics and every span; run.py turns that into
 * metrics and checks it. No metric is computed here.
 *
 * Usage:
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     [--scale full|tiny]
 *
 * --trace 0 runs one discarded warm-up simulation, one whole pass over
 * the workload, then further passes until S seconds have elapsed; the
 * pass under way at that moment stops after its current simulation.
 * --trace 1 runs the warm-up, one untraced pass and one pass with the
 * walk-lifecycle tracer on. Every simulation starts from an empty
 * System (cold TLBs, caches and PWCs) and is audited at teardown. Every
 * System::run is flanked by two host-speed probes (HostProbe).
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/report.hh"
#include "exp/run.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "workload/registry.hh"
#include "workload/tenant_mix.hh"

using namespace gpuwalk;

namespace {

/** Runaway guard handed to System::run. */
constexpr std::uint64_t maxEvents = 2'000'000'000ull;

/** Setups per measured simulation; setup_s takes their median. */
constexpr unsigned setupReps = 3;

/** Tenant mixes per tenant-paging pass: one mix's runtime hinges on its
 *  slowest tenant, so a pass sums several to keep seeds comparable. */
constexpr unsigned mixesPerPass = 16;

/** Instructions per wavefront of the full-scale workloads. A quarter of
 *  the Fig. 8 shape for irregular-walks and a third for the tenant
 *  mixes: each simulation then lasts well under a second, so every job
 *  is timed many times within one run. */
constexpr unsigned irregularInstructions = 12;
constexpr unsigned tenantInstructions = 16;

/** A random single-cycle ring walked by dependent loads. */
class LoadRing
{
  public:
    LoadRing(std::size_t bytes, unsigned steps)
        : next_(bytes / sizeof(std::uint32_t)), steps_(steps)
    {
        // Sattolo's shuffle: a permutation that is a single cycle.
        std::iota(next_.begin(), next_.end(), 0u);
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::size_t i = next_.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(next_[i], next_[x % i]);
        }
    }

    void
    walk()
    {
        std::uint32_t at = 0;
        for (unsigned i = 0; i < steps_; ++i)
            at = next_[at];
        end_ = at;
    }

    std::size_t bytes() const { return next_.size() * sizeof(next_[0]); }

  private:
    std::vector<std::uint32_t> next_;
    unsigned steps_;
    volatile std::uint32_t end_ = 0;  ///< keeps the walk from being elided
};

/**
 * Host-speed probe, timed beside every System::run. The host is shared
 * and its speed drifts by tens of percent within minutes; the
 * simulator's time tracks the probe's, so run.py divides one by the
 * other. Dependent loads in a 1 MiB ring (core-private cache) take about
 * a third of the probe and loads in a 16 MiB ring (shared cache and
 * DRAM) the rest: either kind of contention slows the simulator. The
 * rings depend on nothing but their sizes, never on --seed.
 */
class HostProbe
{
  public:
    void
    walk()
    {
        near_.walk();
        far_.walk();
    }

    std::size_t bytes() const { return near_.bytes() + far_.bytes(); }

  private:
    LoadRing near_{std::size_t{1} << 20, 1u << 19};
    LoadRing far_{std::size_t{16} << 20, 1u << 16};
};

/** One timed call into a layer. Spans of one simulation share @ref run. */
struct Span
{
    std::string name;
    long run = -1;       ///< simulation id; -1 for pass spans
    int parent = -1;     ///< index of the enclosing span
    unsigned rep = 0;    ///< setup repetition
    double start = 0.0;  ///< seconds since the harness started
    double end = 0.0;
};

/** In-memory span store, written out once at exit. */
class SpanLog
{
  public:
    int
    open(std::string name, long run, int parent, unsigned rep)
    {
        spans_.push_back({std::move(name), run, parent, rep, now(), 0.0});
        return static_cast<int>(spans_.size() - 1);
    }

    void close(int idx) { spans_[idx].end = now(); }

    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
};

/** Opens a span for the lifetime of the scope. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, std::string name, long run, int parent,
              unsigned rep = 0)
        : log_(log), idx_(log.open(std::move(name), run, parent, rep))
    {}
    ~SpanScope() { log_.close(idx_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int index() const { return idx_; }

  private:
    SpanLog &log_;
    int idx_;
};

/** One simulation of a workload: an app (or a tenant mix) under one
 *  walk scheduler, on the serial engine. */
struct Job
{
    std::string app;
    core::SchedulerKind scheduler = core::SchedulerKind::Fcfs;
    std::uint64_t seed = 0;  ///< WorkloadParams / TenantMixConfig seed
};

/** A named benchmark workload: its inputs and the simulations of a pass. */
struct WorkloadDef
{
    system::SystemConfig cfg;
    workload::WorkloadParams params;                ///< single-app runs
    std::optional<workload::TenantMixConfig> mix;   ///< tenant runs
    std::vector<Job> pass;
};

WorkloadDef
defineWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    WorkloadDef def;
    def.cfg = system::SystemConfig::baseline();
    def.cfg.audit.enabled = true;  // teardown checks only
    def.params = exp::experimentParams();
    def.params.seed = seed;
    if (tiny) {
        def.params.wavefronts = 8;
        def.params.instructionsPerWavefront = 4;
        def.params.footprintScale = 0.02;
    }
    const auto both = [&def, seed](const std::vector<std::string> &apps) {
        for (const auto &app : apps) {
            def.pass.push_back({app, core::SchedulerKind::Fcfs, seed});
            def.pass.push_back({app, core::SchedulerKind::SimtAware, seed});
        }
    };

    if (name == "irregular-walks") {
        if (!tiny)
            def.params.instructionsPerWavefront = irregularInstructions;
        both(workload::irregularWorkloadNames());
    } else if (name == "regular-data") {
        both(workload::regularWorkloadNames());
    } else if (name == "tenant-paging") {
        workload::TenantMixConfig mix;
        mix.numTenants = 8;
        mix.wavefrontsPerTenant = tiny ? def.params.wavefronts : 32;
        mix.instructionsPerWavefront =
            tiny ? def.params.instructionsPerWavefront : tenantInstructions;
        mix.churnFraction = 0.5;
        mix.alternateWeights = true;
        def.mix = mix;
        def.cfg.gmmu.enabled = true;
        def.cfg.gmmu.oversubscription = 0.25;
        def.cfg.iommu.prefetch.kind = iommu::PrefetchKind::Spp;
        for (unsigned i = 0; i < mixesPerPass; ++i) {
            def.pass.push_back({"mix", core::SchedulerKind::WeightedShare,
                                seed * mixesPerPass + i});
        }
    } else {
        sim::fatal("unknown workload '", name,
                   "' (irregular-walks | regular-data | tenant-paging)");
    }
    return def;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Sums the integer "name value # desc" lines of a System::dumpStats
 *  listing whose name starts with @p prefix and ends with @p suffix. */
std::uint64_t
sumDump(const std::string &dump, const std::string &prefix,
        const std::string &suffix)
{
    std::istringstream in(dump);
    std::string name;
    std::string value;
    std::string rest;
    std::uint64_t total = 0;
    while (in >> name >> value) {
        std::getline(in, rest);
        if (name.size() >= prefix.size() + suffix.size()
            && name.compare(0, prefix.size(), prefix) == 0
            && name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix)
                   == 0) {
            total += std::stoull(value);
        }
    }
    return total;
}

/** Exact sample counts of one traced latency, keyed by value. */
using SampleCounts = std::map<std::uint64_t, std::uint64_t>;

void
writeSamples(std::ostream &os, const SampleCounts &samples)
{
    os << "[";
    bool first = true;
    for (const auto &[value, count] : samples) {
        os << (first ? "" : ",") << "[" << value << "," << count << "]";
        first = false;
    }
    os << "]";
}

class Harness
{
  public:
    Harness(WorkloadDef def, bool traceMode)
        : def_(std::move(def)), traceMode_(traceMode)
    {}

    void
    run(double seconds)
    {
        simulate(def_.pass.front(), "warmup", -1, -1, false);
        if (traceMode_) {
            runPass("measure", false);
            runPass("traced", true);
            return;
        }
        const double deadline = log_.now() + seconds;
        runPass("measure", false);
        while (log_.now() < deadline)
            runPass("measure", false, deadline);
    }

    void
    print(std::ostream &os, const std::string &workload, std::uint64_t seed,
          const std::string &scale) const
    {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        os << "{\"workload\": " << quote(workload) << ", \"seed\": " << seed
           << ", \"scale\": " << quote(scale)
           << ", \"hardware_threads\": "
           << std::thread::hardware_concurrency()
           << ", \"peak_rss_kb\": " << usage.ru_maxrss
           << ", \"max_events\": " << maxEvents
           << ", \"probe_bytes\": " << probe_.bytes() << ", \"sims\": [";
        for (std::size_t i = 0; i < sims_.size(); ++i)
            os << (i ? ",\n" : "\n") << sims_[i];
        os << "],\n\"spans\": [";
        const auto &spans = log_.spans();
        os << std::setprecision(17);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << (i ? ",\n" : "\n") << "{\"name\": " << quote(s.name)
               << ", \"run\": " << s.run << ", \"parent\": " << s.parent
               << ", \"rep\": " << s.rep << ", \"start\": " << s.start
               << ", \"end\": " << s.end << "}";
        }
        os << "]}\n";
    }

  private:
    /** A System with its workload loaded, ready to run. */
    struct Loaded
    {
        std::unique_ptr<system::System> sys;
        std::uint64_t footprintBytes = 0;
    };

    /** Runs the pass's jobs in order, stopping early at @p deadline. */
    void
    runPass(const std::string &role, bool traced,
            std::optional<double> deadline = std::nullopt)
    {
        SpanScope pass(log_, "pass", -1, -1);
        for (const Job &job : def_.pass) {
            if (deadline && log_.now() >= *deadline)
                break;
            simulate(job, role, passes_, pass.index(), traced);
        }
        ++passes_;
    }

    Loaded
    setUp(const Job &job, bool traced, long run, int parent, unsigned rep)
    {
        Loaded out;
        auto cfg = def_.cfg;
        cfg.scheduler = job.scheduler;
        if (traced) {
            cfg.trace.enabled = true;
            cfg.trace.ringCapacity = ringCapacity_.at(key(job));
        }

        if (!def_.mix) {
            auto params = def_.params;
            params.seed = job.seed;
            std::unique_ptr<workload::WorkloadGenerator> gen;
            gpu::GpuWorkload wl;
            {
                SpanScope s(log_, "system.build", run, parent, rep);
                out.sys = std::make_unique<system::System>(cfg);
            }
            {
                SpanScope s(log_, "workload.generate", run, parent, rep);
                gen = workload::makeWorkload(job.app);
                out.sys->addressSpace().useLargePages(params.useLargePages);
                wl = gen->generate(out.sys->addressSpace(), params);
            }
            {
                SpanScope s(log_, "system.load", run, parent, rep);
                out.sys->loadWorkload(std::move(wl));
            }
            out.footprintBytes = out.sys->addressSpace().footprintBytes();
            return out;
        }

        // The tenant mix, materialized in the same order as the gpuwalk
        // CLI's --tenants path so physical frames match it exactly.
        std::vector<workload::TenantSpec> specs;
        {
            SpanScope s(log_, "workload.generate", run, parent, rep);
            auto mix = *def_.mix;
            mix.seed = job.seed;
            specs = workload::generateTenantMix(mix);
        }
        for (unsigned i = 0; i < specs.size(); ++i) {
            if (specs[i].weight > 1) {
                cfg.qos.shareWeights.resize(specs.size(), 1);
                cfg.qos.shareWeights[i] = specs[i].weight;
            }
        }
        {
            SpanScope s(log_, "system.build", run, parent, rep);
            out.sys = std::make_unique<system::System>(cfg);
        }
        for (unsigned i = 0; i < specs.size(); ++i) {
            tlb::ContextId ctx = tlb::defaultContext;
            if (i > 0) {
                SpanScope s(log_, "system.build", run, parent, rep);
                ctx = out.sys->createContext();
            }
            gpu::GpuWorkload wl;
            {
                SpanScope s(log_, "workload.generate", run, parent, rep);
                auto gen = workload::makeWorkload(specs[i].workload);
                vm::AddressSpace &as = out.sys->addressSpaceOf(ctx);
                as.useLargePages(specs[i].params.useLargePages);
                wl = gen->generate(as, specs[i].params);
            }
            {
                SpanScope s(log_, "system.load", run, parent, rep);
                out.sys->gpu().setAppContext(i, ctx);
                if (specs[i].arrivalTick == 0) {
                    out.sys->gpu().loadWorkload(std::move(wl), i);
                } else {
                    out.sys->gpu().loadWorkloadAt(specs[i].arrivalTick,
                                                  std::move(wl), i);
                }
            }
            out.footprintBytes += out.sys->addressSpaceOf(ctx).footprintBytes();
        }
        return out;
    }

    std::uint64_t
    expectedInstructions() const
    {
        if (def_.mix) {
            return std::uint64_t{def_.mix->numTenants}
                   * def_.mix->wavefrontsPerTenant
                   * def_.mix->instructionsPerWavefront;
        }
        return std::uint64_t{def_.params.wavefronts}
               * def_.params.instructionsPerWavefront;
    }

    static std::string
    key(const Job &job)
    {
        return job.app + "/" + core::toString(job.scheduler) + "/"
               + std::to_string(job.seed);
    }

    void
    simulate(const Job &job, const std::string &role, int pass, int parent,
             bool traced)
    {
        const long run = static_cast<long>(sims_.size());
        SpanScope runSpan(log_, "run", run, parent);
        const unsigned reps = role == "measure" ? setupReps : 1;

        Loaded loaded;
        for (unsigned rep = 0; rep < reps; ++rep) {
            if (loaded.sys) {
                SpanScope s(log_, "system.teardown", run, runSpan.index(),
                            rep - 1);
                loaded.sys.reset();
            }
            loaded = setUp(job, traced, run, runSpan.index(), rep);
        }
        system::System &sys = *loaded.sys;

        system::RunStats stats;
        const auto probe = [&] {
            SpanScope s(log_, "host.probe", run, runSpan.index(), reps - 1);
            probe_.walk();
        };
        probe();
        {
            SpanScope s(log_, "system.run", run, runSpan.index(), reps - 1);
            stats = sys.run(maxEvents);
        }
        probe();

        std::ostringstream os;
        {
            SpanScope s(log_, "stats.collect", run, runSpan.index(),
                        reps - 1);
            std::ostringstream dump;
            sys.dumpStats(dump);
            const std::string text = dump.str();
            const std::uint64_t coalesced =
                sumDump(text, "gpu.cu", ".translation_requests");

            os << std::setprecision(17);
            os << "{\"id\": " << run << ", \"role\": " << quote(role)
               << ", \"pass\": " << pass << ", \"app\": " << quote(job.app)
               << ", \"scheduler\": "
               << quote(core::toString(job.scheduler))
               << ", \"seed\": " << job.seed
               << ", \"traced\": " << (traced ? "true" : "false")
               << ", \"expected_instructions\": " << expectedInstructions()
               << ", \"footprint_pages\": "
               << (loaded.footprintBytes + mem::pageSize - 1) / mem::pageSize
               << ",\n \"caches\": {\"l1d_hits\": "
               << sumDump(text, "l1d", ".hits")
               << ", \"l1d_misses\": " << sumDump(text, "l1d", ".misses")
               << ", \"l2d_hits\": " << sumDump(text, "l2d.", "hits")
               << ", \"l2d_misses\": " << sumDump(text, "l2d.", "misses")
               << "},\n \"components\": {\"gpu\": ";
            sys.gpu().stats().dumpJson(os);
            os << ", \"gpu_tlb\": ";
            sys.tlbs().stats().dumpJson(os);
            os << ", \"iommu\": ";
            sys.iommu().stats().dumpJson(os);
            os << ", \"dram\": ";
            sys.dram().stats().dumpJson(os);
            os << "},\n \"stats\": " << exp::statsJsonString(stats);
            if (traced)
                writeTrace(os, sys);
            os << "}";

            // Sizes the traced pass's ring from this untraced run: one
            // Coalesced record per GPU TLB request, plus a generous ten
            // lifecycle records per IOMMU request or prefetch (measured:
            // about six). run.py fails any traced run that dropped one.
            if (!traced) {
                ringCapacity_[key(job)] =
                    coalesced
                    + 10 * (stats.translationRequests
                            + stats.prefetch.issued)
                    + (std::size_t{1} << 16);
            }
        }
        sims_.push_back(os.str());

        SpanScope s(log_, "system.teardown", run, runSpan.index(), reps - 1);
        loaded.sys.reset();
    }

    /** Exact per-walk queue waits and walker service times, and the
     *  pick-reason mix, from the tracer's Scheduled/WalkDone records. */
    static void
    writeTrace(std::ostream &os, const system::System &sys)
    {
        const trace::Tracer &tracer = *sys.tracer();
        SampleCounts wait;
        SampleCounts service;
        std::map<std::string, std::uint64_t> picks;
        tracer.forEach([&](const trace::Event &ev) {
            if (ev.kind == trace::EventKind::Scheduled) {
                ++wait[ev.arg1];
                ++picks[core::toString(
                    static_cast<core::PickReason>(ev.arg0))];
            } else if (ev.kind == trace::EventKind::WalkDone) {
                ++service[ev.arg1];
            }
        });
        os << ",\n \"trace\": {\"recorded\": " << tracer.recorded()
           << ", \"dropped\": " << tracer.dropped() << ", \"picks\": {";
        bool first = true;
        for (const auto &[reason, count] : picks) {
            os << (first ? "" : ", ") << quote(reason) << ": " << count;
            first = false;
        }
        os << "},\n  \"queue_wait\": ";
        writeSamples(os, wait);
        os << ",\n  \"service\": ";
        writeSamples(os, service);
        os << "}";
    }

    WorkloadDef def_;
    bool traceMode_;
    int passes_ = 0;
    SpanLog log_;
    HostProbe probe_;
    std::map<std::string, std::size_t> ringCapacity_;
    std::vector<std::string> sims_;
};

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args{
        {"workload", ""}, {"seed", "42"}, {"seconds", "10"},
        {"trace", "0"},   {"scale", "full"}};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || !args.count(flag.substr(2)))
            sim::fatal("unknown argument '", flag, "'");
        args[flag.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0)
        sim::fatal("flags take one value each");
    if (args["scale"] != "full" && args["scale"] != "tiny")
        sim::fatal("--scale must be full or tiny");

    const std::uint64_t seed = std::stoull(args["seed"]);
    const bool tiny = args["scale"] == "tiny";
    Harness harness(defineWorkload(args["workload"], seed, tiny),
                    args["trace"] == "1");
    harness.run(std::stod(args["seconds"]));
    harness.print(std::cout, args["workload"], seed, args["scale"]);
    return 0;
}

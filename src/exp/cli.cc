#include "exp/cli.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string_view>

#include "gpu/instruction.hh"
#include "sim/logging.hh"

namespace gpuwalk::exp {

namespace {

/** Which commands accept a flag. */
enum Scope : unsigned
{
    RunOnly = 1u << static_cast<unsigned>(Command::Run),
    SweepOnly = 1u << static_cast<unsigned>(Command::Sweep),
    Both = RunOnly | SweepOnly,
};

/** Whether a flag takes a value. */
enum class Arity
{
    None,      ///< --flag
    Required,  ///< --flag=value or --flag value
};

struct Flag
{
    std::string_view name;
    Scope scope;
    Arity arity;
    /** Applies the flag; @p v is "" for an Arity::None flag. */
    void (*apply)(CliOptions &o, const std::string &v);
};

/** A decimal unsigned integer in [@p min, @p max]; digits only
 *  (strtoull alone would take "-1", " 7" and "7x"). */
std::uint64_t
toUint(std::string_view flag, const std::string &v, std::uint64_t min,
       std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    char *end = nullptr;
    errno = 0;
    const std::uint64_t n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0]))
        || *end != '\0' || errno == ERANGE || n < min) {
        sim::fatal("--", flag, " needs ",
                   min ? "a positive" : "a non-negative",
                   " integer, got '", v, "'");
    }
    if (n > max)
        sim::fatal("--", flag, " must be at most ", max, ", got '", v, "'");
    return n;
}

unsigned
toUnsigned(std::string_view flag, const std::string &v,
           std::uint64_t min = 0,
           std::uint64_t max = std::numeric_limits<unsigned>::max())
{
    return static_cast<unsigned>(toUint(flag, v, min, max));
}

/** A cache size: a positive multiple of its @p ways, and a power of
 *  two times them when @p pow2_sets (the set index is a bit mask). */
unsigned
toEntries(std::string_view flag, const std::string &v, unsigned ways,
          bool pow2_sets)
{
    const unsigned n = toUnsigned(flag, v, 1);
    if (n % ways != 0 || (pow2_sets && !std::has_single_bit(n / ways))) {
        sim::fatal("--", flag, " needs a multiple of the ", ways,
                   "-way associativity",
                   pow2_sets ? " with a power-of-two set count" : "",
                   ", got '", v, "'");
    }
    return n;
}

double
toDouble(std::string_view flag, const std::string &v)
{
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d))
        sim::fatal("--", flag, " needs a number, got '", v, "'");
    return d;
}

std::string
toPath(std::string_view flag, const std::string &v)
{
    if (v.empty())
        sim::fatal("--", flag, " needs a file path");
    return v;
}

/** A path written only after the simulation: its directory must
 *  exist now, or the run would simulate to its end and then fail. */
std::string
toOutPath(std::string_view flag, const std::string &v)
{
    const auto dir = std::filesystem::path(toPath(flag, v)).parent_path();
    if (!dir.empty() && !std::filesystem::is_directory(dir)) {
        sim::fatal("--", flag, " '", v, "': directory '", dir.string(),
                   "' does not exist");
    }
    return v;
}

/** Every flag of both commands. */
const Flag flags[] = {
    // Common to both commands.
    {"help", Both, Arity::None,
     [](CliOptions &o, const std::string &) { o.help = true; }},
    {"jobs", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.runner.jobs = toUnsigned("jobs", v);
     }},
    {"json", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.jsonPath = toOutPath("json", v);
     }},
    {"trace-out", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.trace.outPath = toOutPath("trace-out", v);
         o.cfg.trace.enabled = true;
     }},
    {"trace-ring", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.trace.ringCapacity = toUint("trace-ring", v, 1, maxTraceRing);
         o.cfg.trace.enabled = true;
     }},
    {"audit", Both, Arity::None,
     [](CliOptions &o, const std::string &) {
         o.cfg.audit.enabled = true;
     }},
    {"audit-interval", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.audit.interval = toUint("audit-interval", v, 1);
         o.cfg.audit.enabled = true;
     }},

    // Hardware (single run only: the experiments fix the machine they
    // reproduce, and several sweep these fields themselves).
    {"cus", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.gpu.numCus = toUnsigned("cus", v, 1);
         o.cfg.gpuTlb.numCus = o.cfg.gpu.numCus;
     }},
    {"wavefronts-per-cu", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.gpu.wavefrontsPerCu =
             toUnsigned("wavefronts-per-cu", v, 1);
     }},
    {"l2tlb-entries", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.gpuTlb.l2Entries =
             toEntries("l2tlb-entries", v, o.cfg.gpuTlb.l2Associativity,
                       true);
     }},
    {"walkers", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.iommu.numWalkers = toUnsigned("walkers", v, 1);
     }},
    {"buffer-entries", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.iommu.bufferEntries = toUnsigned("buffer-entries", v, 1);
     }},
    {"pwc-entries", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.iommu.pwc.entriesPerLevel = toEntries(
             "pwc-entries", v, o.cfg.iommu.pwc.associativity, false);
     }},
    {"no-pwc-pinning", RunOnly, Arity::None,
     [](CliOptions &o, const std::string &) {
         o.cfg.iommu.pwc.pinScoredEntries = false;
     }},
    {"no-walk-cache", RunOnly, Arity::None,
     [](CliOptions &o, const std::string &) {
         o.cfg.iommu.useWalkCache = false;
     }},
    {"aging-threshold", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.simt.agingThreshold = toUint("aging-threshold", v, 0);
     }},
    {"virtual-l1", RunOnly, Arity::None,
     [](CliOptions &o, const std::string &) {
         o.cfg.gpu.virtualL1Cache = true;
     }},

    // Translation prefetch.
    {"prefetch", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.iommu.prefetch.kind = iommu::prefetchKindFromString(v);
     }},
    {"prefetch-degree", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.iommu.prefetch.degree =
             toUnsigned("prefetch-degree", v, 1, maxPrefetchDegree);
     }},

    // Demand paging: any of these turns the GMMU on.
    {"oversubscription", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         const double r = toDouble("oversubscription", v);
         if (r <= 0.0 || r > 1.0)
             sim::fatal("--oversubscription needs a ratio in (0, 1], "
                        "got '", v, "'");
         o.cfg.gmmu.oversubscription = r;
         o.cfg.gmmu.enabled = true;
     }},
    {"fault-latency", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.gmmu.faultLatency =
             toUint("fault-latency", v, 0, maxLatencyTicks);
         o.cfg.gmmu.enabled = true;
     }},
    {"migration-latency", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.gmmu.migrationLatency =
             toUint("migration-latency", v, 0, maxLatencyTicks);
         o.cfg.gmmu.enabled = true;
     }},
    {"gmmu-batch", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.gmmu.batchSize = toUnsigned("gmmu-batch", v, 1);
         o.cfg.gmmu.enabled = true;
     }},
    {"gmmu-evict", Both, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         if (v == "lru")
             o.cfg.gmmu.evict = vm::EvictPolicy::Lru;
         else if (v == "random")
             o.cfg.gmmu.evict = vm::EvictPolicy::Random;
         else
             sim::fatal("unknown --gmmu-evict '", v, "' (lru|random)");
         o.cfg.gmmu.enabled = true;
     }},

    // Single run: workload, scheduler and output.
    {"workload", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) { o.workload = v; }},
    {"load-trace", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.loadTrace = toPath("load-trace", v);
     }},
    {"save-trace", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.saveTrace = toPath("save-trace", v);
     }},
    {"list-workloads", RunOnly, Arity::None,
     [](CliOptions &o, const std::string &) { o.listWorkloads = true; }},
    {"scheduler", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.cfg.scheduler = core::schedulerKindFromString(v);
     }},
    {"compare", RunOnly, Arity::None,
     [](CliOptions &o, const std::string &) { o.compare = true; }},
    {"seed", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.params.seed = toUint("seed", v, 0);
         o.cfg.schedulerSeed = o.params.seed;
     }},
    {"wavefronts", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.params.wavefronts = toUnsigned("wavefronts", v, 1);
     }},
    {"instructions", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.params.instructionsPerWavefront =
             toUnsigned("instructions", v, 1);
     }},
    {"footprint-scale", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.params.footprintScale = toDouble("footprint-scale", v);
         if (o.params.footprintScale <= 0.0)
             sim::fatal("--footprint-scale needs a positive number, "
                        "got '", v, "'");
     }},
    {"compute-cycles", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.params.computeCycles =
             toUint("compute-cycles", v, 0, gpu::maxComputeCycles);
     }},
    {"large-pages", RunOnly, Arity::None,
     [](CliOptions &o, const std::string &) {
         o.params.useLargePages = true;
     }},
    {"tenants", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.tenants = toUnsigned("tenants", v, 0, maxTenants);
         if (o.tenants < 2)
             sim::fatal("--tenants needs at least 2 tenants, got '", v,
                        "' (omit it for a single workload)");
     }},
    {"churn-fraction", RunOnly, Arity::Required,
     [](CliOptions &o, const std::string &v) {
         o.churnFraction = toDouble("churn-fraction", v);
         if (o.churnFraction < 0.0 || o.churnFraction > 1.0)
             sim::fatal("--churn-fraction needs a fraction in [0, 1], "
                        "got '", v, "'");
     }},
    {"alternate-weights", RunOnly, Arity::None,
     [](CliOptions &o, const std::string &) {
         o.alternateWeights = true;
     }},
    {"stats", RunOnly, Arity::None,
     [](CliOptions &o, const std::string &) { o.dumpStats = true; }},
    {"quiet", RunOnly, Arity::None,
     [](CliOptions &o, const std::string &) { o.quiet = true; }},

    // Sweep only.
    {"list", SweepOnly, Arity::None,
     [](CliOptions &o, const std::string &) { o.list = true; }},
};

const Flag *
findFlag(std::string_view name)
{
    for (const Flag &flag : flags) {
        if (flag.name == name)
            return &flag;
    }
    return nullptr;
}

} // namespace

CliOptions
parseCli(Command command, const std::vector<std::string> &args)
{
    const unsigned scope = 1u << static_cast<unsigned>(command);
    const char *where = command == Command::Sweep ? "gpuwalk sweep"
                                                  : "gpuwalk";
    CliOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) != 0) {
            if (command == Command::Sweep && opts.experiment.empty()) {
                opts.experiment = arg;
                continue;
            }
            sim::fatal("unexpected argument '", arg,
                       "' (flags start with --; see --help)");
        }

        std::string name = arg.substr(2);
        std::string value;
        const auto eq = name.find('=');
        const bool inline_value = eq != std::string::npos;
        if (inline_value) {
            value = name.substr(eq + 1);
            name.resize(eq);
        }

        const Flag *flag = findFlag(name);
        if (!flag)
            sim::fatal("unknown flag --", name, " (see --help)");
        if (!(flag->scope & scope))
            sim::fatal("--", name, " does not apply to ", where,
                       " (see --help)");

        switch (flag->arity) {
          case Arity::None:
            if (inline_value)
                sim::fatal("--", name, " takes no value");
            break;
          case Arity::Required:
            if (inline_value)
                break;
            // "--flag value" spelling: the value is the next argument.
            if (i + 1 >= args.size() || args[i + 1].rfind("--", 0) == 0)
                sim::fatal("flag --", name, " needs a value");
            value = args[++i];
            break;
        }
        flag->apply(opts, value);
        opts.given.push_back(flag->name);
    }

    const auto given = [&opts](std::string_view name) {
        return std::find(opts.given.begin(), opts.given.end(), name)
               != opts.given.end();
    };
    for (const char *name : {"churn-fraction", "alternate-weights"}) {
        if (opts.tenants < 2 && given(name))
            sim::fatal("--", name, " needs --tenants=N with N >= 2");
    }
    // Pairs where one flag would silently drop or break the other.
    const char *const exclusive[][3] = {
        {"tenants", "load-trace",
         "the mix generator picks each tenant's workload"},
        {"save-trace", "tenants", "a mix has no single workload trace"},
        {"save-trace", "load-trace", "a replay generates no trace"},
        {"workload", "load-trace", "the replayed trace is the workload"},
        {"tenants", "virtual-l1",
         "a virtual L1 translates below the cache, where the owning "
         "tenant is unknown"},
        {"tenants", "workload",
         "the mix generator picks each tenant's workload"},
        {"tenants", "large-pages",
         "the mix generator maps every tenant at 4 KB"},
    };
    for (const auto &[a, b, why] : exclusive) {
        if (given(a) && given(b))
            sim::fatal("--", a, " and --", b, " are exclusive (", why, ")");
    }
    if (opts.params.useLargePages && opts.cfg.gmmu.enabled)
        sim::fatal("--large-pages and the demand-paging flags are "
                   "exclusive (2 MB coverage comes from GMMU "
                   "promotion)");
    return opts;
}

} // namespace gpuwalk::exp

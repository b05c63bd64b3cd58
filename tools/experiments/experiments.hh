/**
 * @file
 * The experiments `gpuwalk sweep <name>` runs: the paper's Tables I-II
 * and Figures 2-14, the ablations, and the multi-program, tenant and
 * paging extensions. Each is a plain function from the base config
 * (what the command-line flags made of Table I) to a Report. Every run
 * an experiment simulates starts from that base, so a flag reaches all
 * of them. The paper's (approximate, eyeballed-from-figure) values are
 * printed next to ours; EXPERIMENTS.md has the full discussion.
 */

#ifndef GPUWALK_TOOLS_EXPERIMENTS_HH
#define GPUWALK_TOOLS_EXPERIMENTS_HH

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "exp/metrics.hh"
#include "exp/report.hh"
#include "system/system.hh"
#include "workload/registry.hh"

namespace gpuwalk::experiments {

using exp::fmt;

struct Experiment;

/** Runs one experiment from @p base and returns its tables and runs. */
using ExperimentFn = exp::Report(const Experiment &self,
                                 const system::SystemConfig &base,
                                 const exp::RunnerOptions &opts);

/**
 * One result the paper reports, as a relation a summary scalar of the
 * experiment's report must meet: `key relation bound`. The `claims`
 * ctest runs every experiment with claims, audited, and checks each.
 */
struct Claim
{
    enum Relation { Lt, Gt, Le, Ge };

    /** Summary key; a trailing '*' claims every key with that prefix
     *  (and at least one must exist). */
    std::string_view key;
    Relation relation;
    /** A number, or the summary key of another scalar. */
    std::variant<double, std::string_view> bound;
};

/** One entry of the sweep table. */
struct Experiment
{
    const char *name;         ///< `gpuwalk sweep <name>`
    const char *id;           ///< report title ("Figure 8")
    const char *description;
    ExperimentFn *fn;
    /** Flags for the fields the experiment sets per run; a sweep
     *  rejects them rather than let the experiment overwrite them. */
    std::vector<std::string_view> axes = {};
    /** The paper's results this experiment reproduces. */
    std::vector<Claim> claims = {};
};

/** Every experiment, in `gpuwalk sweep --list` order. */
std::span<const Experiment> all();

/** The experiment called @p name, or nullptr. */
const Experiment *find(const std::string &name);

/** True if Table II classifies @p app as irregular. */
bool isIrregular(const std::string &app);

/** @p workloads under FCFS and SIMT-aware, the grid most figures
 *  compare. */
exp::SweepSpec fcfsVsSimt(const system::SystemConfig &base,
                          std::vector<std::string> workloads);

// The experiments (figures.cc, ablations.cc, sharing.cc).
ExperimentFn table1, table2, fig02, fig03, fig05, fig06, fig08, fig09,
    fig10, fig11, fig12, fig13, fig14, ablation_scheduler,
    ablation_large_pages, ablation_virtual_cache, ablation_prefetch,
    ablation_multiprogram, tenant_mix, oversubscription;

} // namespace gpuwalk::experiments

#endif // GPUWALK_TOOLS_EXPERIMENTS_HH

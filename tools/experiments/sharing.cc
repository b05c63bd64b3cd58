#include "experiments.hh"

#include <algorithm>
#include <cstdint>

#include "exp/run.hh"
#include "workload/tenant_mix.hh"

namespace gpuwalk::experiments {

namespace {

/**
 * A hand-built sweep job: runs @p spec under @p kind, labelled
 * (@p workload, @p kind, @p seed).
 */
exp::Job
specJob(const std::string &workload, core::SchedulerKind kind,
        std::uint64_t seed, exp::RunSpec spec)
{
    spec.cfg = exp::withScheduler(spec.cfg, kind);
    return exp::makeJob(workload, core::toString(kind), "", seed,
                        std::move(spec));
}

/** A co-run job: two apps share one System, the aggressor as app 0
 *  and the victim as app 1. */
exp::Job
corunJob(const system::SystemConfig &base, core::SchedulerKind kind,
         const std::string &aggressor, const std::string &victim)
{
    auto params = exp::experimentParams();
    params.wavefronts = 128; // per app; 256 total
    return specJob(aggressor + "+" + victim, kind, params.seed,
                   {base,
                    {{.workload = aggressor, .params = params},
                     {.workload = victim, .params = params, .appId = 1}}});
}

/** The committed reference mix: 8 tenants, alternating weights. */
workload::TenantMixConfig
referenceMix()
{
    workload::TenantMixConfig mix;
    mix.numTenants = 8;
    mix.seed = 23;
    mix.wavefrontsPerTenant = 16;
    mix.instructionsPerWavefront = 8;
    mix.footprintScaleMin = 0.02;
    mix.footprintScaleMax = 0.08;
    mix.alternateWeights = true; // odd tenants are weight 2
    return mix;
}

/** Solo reference label: one tenant's private grid point. */
std::string
soloLabel(unsigned tenant)
{
    return "solo-t" + std::to_string(tenant);
}

/** Runs the whole reference mix in one System under @p kind. */
exp::Job
mixJob(const system::SystemConfig &base,
       const std::vector<workload::TenantSpec> &specs,
       core::SchedulerKind kind)
{
    return specJob("mix8", kind, referenceMix().seed,
                   {base, exp::tenantLoads(specs)});
}

/** Runs one tenant alone (same params, whole machine to itself). */
exp::Job
soloJob(const system::SystemConfig &base,
        const workload::TenantSpec &spec, unsigned tenant)
{
    return specJob(soloLabel(tenant), core::SchedulerKind::SimtAware,
                   spec.params.seed,
                   {base, {{spec.workload, spec.params}}});
}

} // namespace

/**
 * Multi-program translation contention (beyond the paper's figures;
 * its §III and §VII point to QoS-aware walk scheduling as follow-on
 * work, citing the memory-controller literature and MASK).
 *
 * Co-runs an irregular, translation-heavy application with a regular,
 * translation-light one on the same GPU. Under FCFS the regular app's
 * rare walks queue behind the irregular app's floods; the SIMT-aware
 * scheduler's SJF scoring naturally prioritizes them (its "jobs" are
 * tiny), shielding the victim — a QoS effect the paper predicts but
 * does not evaluate.
 */
exp::Report
ablation_multiprogram(const Experiment &self, const system::SystemConfig &base,
                      const exp::RunnerOptions &opts)
{
    const std::vector<std::pair<std::string, std::string>> pairs{
        {"MVT", "HOT"}, {"GEV", "KMN"}, {"XSB", "BCK"}};

    // Solo FCFS reference runs at the co-run wavefront count.
    exp::SweepSpec solo(base);
    solo.params.wavefronts = 128;
    solo.workloads = {"MVT", "HOT", "GEV", "KMN", "XSB", "BCK"};
    solo.schedulers = {core::SchedulerKind::Fcfs};

    auto jobs = solo.expand();
    for (const auto &[aggressor, victim] : pairs)
        for (const auto kind :
             {core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware})
            jobs.push_back(corunJob(solo.base, kind, aggressor,
                                    victim));
    auto result = exp::runJobs(jobs, opts);

    exp::Report report(self.id, self.description, solo.base);
    auto &table = report.addTable({"pair", "victim:fcfs",
                                   "victim:simt", "aggr:fcfs",
                                   "aggr:simt"});

    for (const auto &[aggressor, victim] : pairs) {
        const double victim_solo = static_cast<double>(
            result.stats(victim, core::SchedulerKind::Fcfs)
                .runtimeTicks);
        const double aggr_solo = static_cast<double>(
            result.stats(aggressor, core::SchedulerKind::Fcfs)
                .runtimeTicks);
        const std::string pair = aggressor + "+" + victim;
        const auto &fcfs =
            result.stats(pair, core::SchedulerKind::Fcfs).appFinishTicks;
        const auto &simt =
            result.stats(pair, core::SchedulerKind::SimtAware)
                .appFinishTicks;

        // Slowdown of each app (aggressor app 0, victim app 1)
        // relative to running alone under FCFS.
        auto slowdown = [](sim::Tick corun_t, double solo_t) {
            return fmt(static_cast<double>(corun_t) / solo_t, 2) + "x";
        };
        table.addRow({pair, slowdown(fcfs.at(1), victim_solo),
                      slowdown(simt.at(1), victim_solo),
                      slowdown(fcfs.at(0), aggr_solo),
                      slowdown(simt.at(0), aggr_solo)});
    }

    report.addNote(
        "Reading: columns are each app's co-run completion time "
        "over its solo FCFS runtime (lower is\nbetter). SIMT-aware "
        "scheduling shields the translation-light victim (its walks "
        "are always the\nshortest jobs) without starving the "
        "aggressor.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Multi-tenant fairness experiment (beyond the paper's figures; its
 * conclusion points at QoS-aware translation scheduling, citing the
 * MASK line of work).
 *
 * An 8-tenant reference mix — heterogeneous footprints, alternating
 * irregular/regular divergence, alternating weights — shares one GPU
 * and one IOMMU under three walk schedulers: FCFS, the paper's
 * SIMT-aware policy, and weighted share, the QoS policy composing it
 * with cross-tenant fairness. Each tenant
 * also runs solo under SIMT-aware scheduling as the slowdown
 * reference. The report gives per-tenant slowdowns, min/max slowdown,
 * and Jain's fairness index per policy; the same scalars land in the
 * summary JSON for the CI fairness gate.
 */
exp::Report
tenant_mix(const Experiment &self, const system::SystemConfig &base,
           const exp::RunnerOptions &opts)
{
    const std::vector<core::SchedulerKind> policies{
        core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware,
        core::SchedulerKind::WeightedShare};

    const auto specs = workload::generateTenantMix(referenceMix());

    std::vector<exp::Job> jobs;
    for (unsigned i = 0; i < specs.size(); ++i)
        jobs.push_back(soloJob(base, specs[i], i));
    for (const auto kind : policies)
        jobs.push_back(mixJob(base, specs, kind));
    auto result = exp::runJobs(jobs, opts);

    exp::Report report(self.id, self.description, base);
    auto &table = report.addTable(
        {"tenant", "workload", "weight", "slow:fcfs", "slow:simt",
         "slow:wfq"},
        "Per-tenant slowdown vs solo (lower is better)");

    std::uint64_t auditViolations = 0;
    std::map<core::SchedulerKind, std::vector<double>> slowdowns;
    for (const auto kind : policies) {
        const auto &mix = result.at("mix8", kind);
        auditViolations += mix.stats.auditViolations;
        for (unsigned i = 0; i < specs.size(); ++i) {
            const double solo = static_cast<double>(
                result.stats(soloLabel(i),
                             core::SchedulerKind::SimtAware)
                    .runtimeTicks);
            const double finish =
                static_cast<double>(mix.stats.tenants.at(i).finishTick);
            slowdowns[kind].push_back(finish / solo);
        }
    }

    for (unsigned i = 0; i < specs.size(); ++i) {
        std::vector<std::string> row{
            "T" + std::to_string(i), specs[i].workload,
            std::to_string(specs[i].weight)};
        for (const auto kind : policies)
            row.push_back(fmt(slowdowns[kind][i], 2) + "x");
        table.addRow(row);
    }

    auto &fairness = report.addTable(
        {"policy", "min slow", "max slow", "max/min", "jain"},
        "Fairness (Jain over per-tenant slowdowns; 1 = fair)");
    for (const auto kind : policies) {
        const auto &s = slowdowns[kind];
        const double lo = *std::min_element(s.begin(), s.end());
        const double hi = *std::max_element(s.begin(), s.end());
        const double jain = exp::jainIndex(s);
        fairness.addRow({core::toString(kind), fmt(lo, 2), fmt(hi, 2),
                         fmt(hi / lo, 2), fmt(jain, 3)});

        const std::string p = core::toString(kind);
        report.addSummary("jain_" + p, jain);
        report.addSummary("min_slowdown_" + p, lo);
        report.addSummary("max_slowdown_" + p, hi);
        for (unsigned i = 0; i < s.size(); ++i)
            report.addSummary(
                "slowdown_" + p + "_t" + std::to_string(i), s[i]);
    }
    report.addSummary("audit_violations_total",
                      static_cast<double>(auditViolations));

    report.addNote(
        "Reading: each tenant's completion tick in the shared mix "
        "over its solo SIMT-aware runtime.\nFCFS lets the "
        "translation-heavy tenants starve the light ones (low Jain); "
        "weighted share\ntrades a little aggregate throughput for a "
        "much tighter slowdown spread. Odd tenants carry\nweight 2, "
        "so under weighted-share they are *expected* to see lower "
        "slowdowns than their\neven neighbours — Jain is computed on "
        "raw slowdowns and therefore understates that\npolicy's "
        "weighted fairness.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Memory oversubscription sweep: demand paging under shrinking
 * resident-frame budgets, across walk schedulers.
 *
 * For each workload x scheduler the sweep runs a fully resident
 * baseline (GMMU off, eager mapping — the configuration of every
 * paper figure) and three demand-paged variants whose resident-frame
 * cap is 1.0x, 0.75x and 0.5x of the workload footprint. Reported:
 * per-run slowdown vs the resident baseline, per-scheduler geometric
 * means, and the raise-to-service fault latency distribution summed
 * over the workloads of each (scheduler, ratio) cell.
 *
 * Not a paper figure: the source paper assumes fully resident
 * workloads. This is the scheduling-under-faults extension the GMMU
 * subsystem exists for — far-fault batching and migration stretch
 * walk latencies by orders of magnitude, which stresses exactly the
 * queue the walk schedulers arbitrate.
 */
exp::Report
oversubscription(const Experiment &self, const system::SystemConfig &base,
                 const exp::RunnerOptions &opts)
{
    // Two irregular apps plus one regular control: faulting runs cost
    // simulated-tick volume, not host time, but the full Table II set
    // adds nothing the ratio axis doesn't already show.
    const std::vector<std::string> apps{"MVT", "GEV", "KMN"};
    const std::vector<core::SchedulerKind> scheds{
        core::SchedulerKind::Fcfs, core::SchedulerKind::SimtAware};
    // 1.0 isolates cold-start fault-in (the cap never binds); the
    // tighter points sit below the apps' touched working sets (under
    // half the footprint for every Table II app), so capacity
    // eviction and re-faulting genuinely engage.
    const std::vector<double> ratios{1.0, 0.25, 0.10};

    exp::SweepSpec spec(base);
    spec.workloads = apps;
    spec.schedulers = scheds;
    // Variant-applied GMMU settings override the base wholesale for
    // the enable bit and the ratio; latency/policy knobs passed on
    // the command line flow through untouched.
    spec.variants.push_back(
        {"resident", [](system::SystemConfig &cfg,
                        workload::WorkloadParams &) {
             cfg.gmmu.enabled = false;
         }});
    for (const double r : ratios) {
        spec.variants.push_back(
            {"oversub-" + fmt(r, 2),
             [r](system::SystemConfig &cfg,
                 workload::WorkloadParams &) {
                 cfg.gmmu.enabled = true;
                 cfg.gmmu.oversubscription = r;
             }});
    }
    auto result = exp::runSweep(spec, opts);

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable({"app", "scheduler", "ratio",
                                   "slowdown", "faults", "evicted",
                                   "avg fault lat (Mt)"});

    for (const auto &sched : scheds) {
        for (const double r : ratios) {
            const std::string variant = "oversub-" + fmt(r, 2);
            std::vector<double> slowdowns;
            std::vector<std::uint64_t> hist(
                vm::faultLatencyBucketBounds().size() + 1, 0);
            std::uint64_t hist_samples = 0;
            for (const auto &app : apps) {
                const auto &base = result.stats(app, sched, "resident");
                const auto &over = result.stats(app, sched, variant);
                // Slowdown: inverse of speedup, > 1 = paging hurts.
                const double s = exp::speedup(base, over);
                slowdowns.push_back(s);
                const auto &g = over.gmmu;
                for (std::size_t b = 0;
                     b < g.latencyBucketCounts.size()
                     && b < hist.size();
                     ++b) {
                    hist[b] += g.latencyBucketCounts[b];
                }
                hist_samples += g.latencySamples;
                table.addRow(
                    {app, core::toString(sched), fmt(r, 2), fmt(s),
                     std::to_string(g.faultsRaised),
                     std::to_string(g.pagesEvicted),
                     fmt(g.latencyAvg / 1e6, 2)});
            }
            const double mean = exp::geomean(slowdowns);
            table.addRow({"GEOMEAN", core::toString(sched), fmt(r, 2),
                          fmt(mean), "", "", ""});
            table.addRule();
            report.addSummary("geomean_slowdown_"
                                  + core::toString(sched) + "_"
                                  + fmt(r, 2),
                              mean);
            report.addSummary("fault_latency_samples_"
                                  + core::toString(sched) + "_"
                                  + fmt(r, 2),
                              static_cast<double>(hist_samples));
        }
    }

    // The fault-latency distribution per (scheduler, ratio) cell,
    // summed over the apps: the scheduler's fingerprint on fault
    // servicing (batch formation changes raise-to-service waits).
    auto &hist_table = report.addTable(
        {"scheduler", "ratio", "bucket (Mt)", "faults"},
        "fault service latency histogram");
    const auto &bounds = vm::faultLatencyBucketBounds();
    for (const auto &sched : scheds) {
        for (const double r : ratios) {
            const std::string variant = "oversub-" + fmt(r, 2);
            std::vector<std::uint64_t> hist(bounds.size() + 1, 0);
            for (const auto &app : apps) {
                const auto &g = result.stats(app, sched, variant).gmmu;
                for (std::size_t b = 0;
                     b < g.latencyBucketCounts.size()
                     && b < hist.size();
                     ++b) {
                    hist[b] += g.latencyBucketCounts[b];
                }
            }
            for (std::size_t b = 0; b < hist.size(); ++b) {
                if (hist[b] == 0)
                    continue; // all-zero buckets add only noise
                const std::string label =
                    b < bounds.size()
                        ? "<= " + fmt(bounds[b] / 1e6, 1)
                        : "> " + fmt(bounds.back() / 1e6, 1);
                hist_table.addRow({core::toString(sched), fmt(r, 2),
                                   label, std::to_string(hist[b])});
            }
            hist_table.addRule();
        }
    }

    report.addNote(
        "slowdown = resident runtime baseline's runtime divided into "
        "the demand-paged runtime (> 1: paging costs time). ratio "
        "1.0 isolates cold-start fault-in; < 1.0 adds capacity "
        "eviction and re-faulting.");
    report.setRuns(std::move(result));
    return report;
}

} // namespace gpuwalk::experiments

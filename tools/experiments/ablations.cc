#include "experiments.hh"

#include "system/system.hh"

namespace gpuwalk::experiments {

namespace {

const char *
pfName(iommu::PrefetchKind kind)
{
    return iommu::toString(kind);
}

/** Walk latency the GPU actually waits on: the mean tick count until
 *  an instruction's last outstanding walk completes (demand only). */
double
walkLatency(const system::RunStats &stats)
{
    return stats.walks.avgLastCompletedLatency;
}

} // namespace

/**
 * Ablation study (beyond the paper's figures): how much of the
 * SIMT-aware speedup comes from each of the two key ideas?
 *   - sjf-only:   key idea 1 (shortest-job-first scoring) alone
 *   - batch-only: key idea 2 (same-instruction batching) alone
 *   - simt-aware: both (the paper's scheduler)
 * plus two design-subtlety ablations on MVT: the anti-starvation
 * aging override and the PWC counter-pinned replacement.
 */
exp::Report
ablation_scheduler(const Experiment &self, const system::SystemConfig &base,
                   const exp::RunnerOptions &opts)
{
    // Main grid: every irregular app under the decomposed schedulers.
    exp::SweepSpec spec(base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {
        core::SchedulerKind::Fcfs, core::SchedulerKind::SjfOnly,
        core::SchedulerKind::BatchOnly, core::SchedulerKind::SimtAware};

    // Design-subtlety ablations on MVT, run in the same pool.
    exp::SweepSpec subtle(base);
    subtle.workloads = {"MVT"};
    subtle.schedulers = {core::SchedulerKind::SimtAware};
    subtle.variants = {
        {"no-pwc-pinning",
         [](system::SystemConfig &cfg, workload::WorkloadParams &) {
             cfg.iommu.pwc.pinScoredEntries = false;
         }},
        {"aggressive-aging",
         [](system::SystemConfig &cfg, workload::WorkloadParams &) {
             cfg.simt.agingThreshold = 64;
         }},
    };

    auto result = exp::runJobs(
        exp::concat(spec.expand(), subtle.expand()), opts);

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable(
        {"app", "sjf-only", "batch-only", "simt-aware"});

    MeanTracker mean_sjf, mean_batch, mean_simt;
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const double s_sjf = exp::speedup(
            result.stats(app, core::SchedulerKind::SjfOnly), fcfs);
        const double s_batch = exp::speedup(
            result.stats(app, core::SchedulerKind::BatchOnly), fcfs);
        const double s_simt = exp::speedup(
            result.stats(app, core::SchedulerKind::SimtAware), fcfs);
        mean_sjf.add(s_sjf);
        mean_batch.add(s_batch);
        mean_simt.add(s_simt);
        table.addRow({app, fmt(s_sjf), fmt(s_batch), fmt(s_simt)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", fmt(mean_sjf.mean()),
                  fmt(mean_batch.mean()), fmt(mean_simt.mean())});
    report.addSummary("geomean_speedup_sjf_only", mean_sjf.mean());
    report.addSummary("geomean_speedup_batch_only", mean_batch.mean());
    report.addSummary("geomean_speedup_simt_aware", mean_simt.mean());

    const auto &mvt_fcfs =
        result.stats("MVT", core::SchedulerKind::Fcfs);
    const double s_full = exp::speedup(
        result.stats("MVT", core::SchedulerKind::SimtAware), mvt_fcfs);
    const double s_no_pin = exp::speedup(
        result.stats("MVT", core::SchedulerKind::SimtAware,
                     "no-pwc-pinning"),
        mvt_fcfs);
    const double s_eager = exp::speedup(
        result.stats("MVT", core::SchedulerKind::SimtAware,
                     "aggressive-aging"),
        mvt_fcfs);

    report.addNote("Design subtleties (MVT, speedup vs FCFS):\n"
                   "  full SIMT-aware              " + fmt(s_full)
                   + "\n  without PWC pinning          "
                   + fmt(s_no_pin)
                   + "\n  aggressive aging (thr=64)    "
                   + fmt(s_eager));
    report.addSummary("mvt_speedup_full", s_full);
    report.addSummary("mvt_speedup_no_pwc_pinning", s_no_pin);
    report.addSummary("mvt_speedup_aggressive_aging", s_eager);

    report.addNote(
        "(The paper evaluates only the full scheduler; this ablation "
        "quantifies each mechanism's share,\nwhich DESIGN.md calls out "
        "as an open question the paper leaves to follow-on work.)");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Grand policy comparison (extension): every scheduling policy in the
 * library side by side on the six irregular benchmarks — the design
 * space the paper's conclusion invites follow-on work to explore.
 *
 *   fcfs        arrival order (the paper's baseline)
 *   random      uniform pick (the paper's strawman)
 *   oldest-job  complete instructions in age order (PAR-BS-flavoured)
 *   sjf-only    paper key idea 1 alone
 *   batch-only  paper key idea 2 alone
 *   simt-aware  the paper's scheduler (1 + 2 + aging)
 *   srpt        selection-time re-scoring "oracle" (quantifies what
 *               the paper's cheap arrival-time estimates give up)
 *   fair-share  per-app round-robin + SIMT-aware within each app
 *               (degenerates to SJF+batching for single-app runs)
 */
exp::Report
ablation_policies(const Experiment &self, const system::SystemConfig &base,
                  const exp::RunnerOptions &opts)
{
    const std::vector<core::SchedulerKind> kinds{
        core::SchedulerKind::Random,    core::SchedulerKind::OldestJob,
        core::SchedulerKind::SjfOnly,   core::SchedulerKind::BatchOnly,
        core::SchedulerKind::SimtAware, core::SchedulerKind::Srpt,
        core::SchedulerKind::FairShare,
    };

    exp::SweepSpec spec(base);
    spec.workloads = workload::irregularWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs};
    spec.schedulers.insert(spec.schedulers.end(), kinds.begin(),
                           kinds.end());
    auto result = exp::runSweep(spec, opts);

    std::vector<std::string> header{"app"};
    for (auto k : kinds)
        header.push_back(core::toString(k));

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable(header);

    std::vector<MeanTracker> means(kinds.size());
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        std::vector<std::string> row{app};
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const double s =
                exp::speedup(result.stats(app, kinds[k]), fcfs);
            means[k].add(s);
            row.push_back(fmt(s));
        }
        table.addRow(row);
    }
    table.addRule();
    std::vector<std::string> mean_row{"GEOMEAN"};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        mean_row.push_back(fmt(means[k].mean()));
        report.addSummary(
            "geomean_speedup_"
                + std::string(core::toString(kinds[k])),
            means[k].mean());
    }
    table.addRow(mean_row);

    report.addNote(
        "Reading: simt-aware vs srpt measures the cost of "
        "arrival-time scoring (the paper argues\nselection-time "
        "re-scoring is infeasible in hardware; srpt does it anyway "
        "as an analysis bound).\noldest-job isolates 'complete "
        "whole instructions' without any length information.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * "Why not large pages?" — the paper's §VI discussion as an
 * experiment.
 *
 * Runs the six irregular benchmarks with 4 KB base pages and with
 * 2 MB large pages, under FCFS and SIMT-aware scheduling. The paper
 * argues (a) large pages help only to the extent the access pattern
 * has 2 MB-granular locality, (b) footprint growth erodes the benefit
 * ("today's large page is tomorrow's small page"), and (c) techniques
 * that help base pages stay relevant. Column 'residual' shows how
 * much translation overhead remains with large pages: the fraction of
 * instructions still generating page walks.
 */
exp::Report
ablation_large_pages(const Experiment &self, const system::SystemConfig &base,
                     const exp::RunnerOptions &opts)
{
    auto spec = fcfsVsSimt(base, workload::irregularWorkloadNames());
    spec.variants = {
        {"4K", nullptr},
        {"2M",
         [](system::SystemConfig &,
            workload::WorkloadParams &params) {
             params.useLargePages = true;
         }},
    };
    auto result = exp::runSweep(spec, opts);

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable(
        {"app", "walks:4K", "walks:2M", "simt:4K", "simt:2M"});

    for (const auto &app : spec.workloads) {
        const auto &f4 =
            result.stats(app, core::SchedulerKind::Fcfs, "4K");
        const auto &s4 =
            result.stats(app, core::SchedulerKind::SimtAware, "4K");
        const auto &f2 =
            result.stats(app, core::SchedulerKind::Fcfs, "2M");
        const auto &s2 =
            result.stats(app, core::SchedulerKind::SimtAware, "2M");

        table.addRow({app, std::to_string(f4.walkRequests),
                      std::to_string(f2.walkRequests),
                      fmt(exp::speedup(s4, f4)),
                      fmt(exp::speedup(s2, f2))});
    }

    report.addNote(
        "Reading: at Table II footprints (tens to hundreds of MB "
        "= 30-270 large pages), 2 MB entries fit\nentirely in the "
        "512-entry shared TLB: walks nearly vanish and scheduling "
        "headroom with them. This\nis exactly the caveat the "
        "paper's SVI concedes — the benefit hinges on footprint vs "
        "TLB reach\n(\"today's large page effectively becomes "
        "tomorrow's small page\"): footprints a few hundred times\n"
        "larger (or multi-tenant TLB sharing) restore base-page-"
        "style thrashing at 2 MB granularity, which\nis why "
        "base-page techniques like walk scheduling stay relevant. "
        "The paper could not simulate such\nfootprints either "
        "(\"exorbitant simulation time\").");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Virtual GPU caches vs walk scheduling (paper §VII / Yoon et al.
 * [43], "Filtering Translation Bandwidth with Virtual Caching").
 *
 * Virtually-addressed L1 data caches defer translation to the L1 miss
 * path, filtering most translation traffic before it exists; the
 * paper positions its scheduler as orthogonal. This experiment quantifies
 * both: how much translation traffic the virtual L1 removes per
 * benchmark, and how much scheduling headroom remains in each design.
 */
exp::Report
ablation_virtual_cache(const Experiment &self,
                       const system::SystemConfig &base,
                       const exp::RunnerOptions &opts)
{
    auto spec = fcfsVsSimt(base, workload::irregularWorkloadNames());
    spec.variants = {
        {"phys", nullptr},
        {"virt",
         [](system::SystemConfig &cfg, workload::WorkloadParams &) {
             cfg.gpu.virtualL1Cache = true;
         }},
    };
    auto result = exp::runSweep(spec, opts);

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable(
        {"app", "walks:phys", "walks:virt", "simt:phys", "simt:virt"});

    for (const auto &app : spec.workloads) {
        const auto &pf =
            result.stats(app, core::SchedulerKind::Fcfs, "phys");
        const auto &ps =
            result.stats(app, core::SchedulerKind::SimtAware, "phys");
        const auto &vf =
            result.stats(app, core::SchedulerKind::Fcfs, "virt");
        const auto &vs =
            result.stats(app, core::SchedulerKind::SimtAware, "virt");

        table.addRow({app, std::to_string(pf.walkRequests),
                      std::to_string(vf.walkRequests),
                      fmt(exp::speedup(ps, pf)),
                      fmt(exp::speedup(vs, vf))});
    }

    report.addNote(
        "Reading: virtual L1s filter translations behind L1 data "
        "reuse. Divergent column sweeps reuse\ncache lines across "
        "consecutive column steps, so their translation traffic "
        "drops and the walk\nscheduler's headroom shrinks with it; "
        "access patterns without L1 reuse keep their walk "
        "traffic\nand their scheduling benefit. The two techniques "
        "attack the same bottleneck at different points\n— "
        "consistent with the paper calling them orthogonal (SVII).");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Translation-prefetcher factorial ablation (extension; the paper's
 * related work cites TLB prefetchers [44] as a complementary
 * direction).
 *
 * Full factorial: prefetch policy {off, next-page, spp} x walk
 * scheduler {fcfs, simt-aware} x SIMT-aware aging {on, off}, over all
 * Table II workloads, plus a speculative-admission axis {idle,
 * budget} for the aging-on cells of each live prefetcher.
 * Under idle admission every speculative walk is idle-bandwidth only,
 * so no cell may slow demand traffic down; the interesting questions
 * are (a) whether SPP's signature-path lookahead finds the strided
 * sub-streams inside the irregular apps that next-page misses, (b)
 * whether the benefit survives scheduler and aging interaction, and
 * (c) whether routing predictions through the speculative walk class
 * (a token budget) buys coverage without taxing
 * demand latency. Per-cell accuracy/coverage/pollution land in the
 * JSON via each run's stats.prefetch block.
 */
exp::Report
ablation_prefetch(const Experiment &self, const system::SystemConfig &base,
                  const exp::RunnerOptions &opts)
{
    constexpr iommu::PrefetchKind kinds[] = {
        iommu::PrefetchKind::Off, iommu::PrefetchKind::NextPage,
        iommu::PrefetchKind::Spp};
    constexpr bool agings[] = {true, false};
    // Aging off = an unreachable starvation bound: the SIMT-aware
    // scheduler never overrides its batch/SJF pick.
    constexpr std::uint64_t noAgingThreshold = ~std::uint64_t(0);

    auto spec = fcfsVsSimt(base, workload::allWorkloadNames());
    for (const auto kind : kinds) {
        for (const bool aging : agings) {
            std::string name = std::string("pf-") + pfName(kind)
                               + (aging ? "/aging-on" : "/aging-off");
            spec.variants.push_back(
                {std::move(name),
                 [kind, aging](system::SystemConfig &cfg,
                               workload::WorkloadParams &) {
                     cfg.iommu.prefetch.kind = kind;
                     if (!aging)
                         cfg.simt.agingThreshold = noAgingThreshold;
                 }});
        }
    }
    // Admission axis: route predictions through the speculative walk
    // class instead of the legacy idle-walker direct start. Only the
    // aging-on cells of the live prefetchers — idle admission is the
    // "pf-*/aging-on" variants above.
    for (const auto kind :
         {iommu::PrefetchKind::NextPage, iommu::PrefetchKind::Spp}) {
        spec.variants.push_back(
            {std::string("pf-") + pfName(kind) + "/adm-budget",
             [kind](system::SystemConfig &cfg,
                    workload::WorkloadParams &) {
                 cfg.iommu.prefetch.kind = kind;
                 cfg.iommu.specAdmission = iommu::SpecAdmission::Budget;
             }});
    }
    auto result = exp::runSweep(spec, opts);

    exp::Report report(self.id, self.description, spec.base);

    // Headline table: the paper's scheduler (SIMT-aware, aging on),
    // per-app demand-walk latency across the three policies plus the
    // SPP pollution-policing counters.
    auto &table = report.addTable(
        {"app", "walklat:off", "walklat:next", "walklat:spp",
         "spp:issued", "spp:accuracy", "spp:coverage", "spp:pollution"},
        "SIMT-aware, aging on", 13);
    for (const auto &app : spec.workloads) {
        const auto &off = result.stats(
            app, core::SchedulerKind::SimtAware, "pf-off/aging-on");
        const auto &next = result.stats(
            app, core::SchedulerKind::SimtAware, "pf-next/aging-on");
        const auto &spp = result.stats(
            app, core::SchedulerKind::SimtAware, "pf-spp/aging-on");
        table.addRow({app, fmt(walkLatency(off)), fmt(walkLatency(next)),
                      fmt(walkLatency(spp)),
                      std::to_string(spp.prefetch.issued),
                      fmt(spp.prefetch.accuracy),
                      fmt(spp.prefetch.coverage),
                      fmt(spp.prefetch.pollution)});
    }

    // Factorial geomeans over the irregular apps (the paper's focus):
    // walk-latency improvement = latency(off) / latency(policy) in the
    // same scheduler/aging cell, > 1 is better.
    auto &cells = report.addTable(
        {"scheduler", "aging", "next:improvement", "spp:improvement",
         "next:pollution", "spp:pollution"},
        "Irregular-app geomeans per factorial cell", 17);
    for (const auto sched : spec.schedulers) {
        for (const bool aging : agings) {
            const std::string suffix =
                aging ? "/aging-on" : "/aging-off";
            std::vector<double> nextImp, sppImp;
            double nextPol = 0.0, sppPol = 0.0;
            unsigned apps = 0;
            for (const auto &app : spec.workloads) {
                if (!isIrregular(app))
                    continue;
                const auto &off =
                    result.stats(app, sched, "pf-off" + suffix);
                const auto &next =
                    result.stats(app, sched, "pf-next" + suffix);
                const auto &spp =
                    result.stats(app, sched, "pf-spp" + suffix);
                nextImp.push_back(walkLatency(off)
                                  / walkLatency(next));
                sppImp.push_back(walkLatency(off) / walkLatency(spp));
                nextPol += next.prefetch.pollution;
                sppPol += spp.prefetch.pollution;
                ++apps;
            }
            const double nextG = exp::geomean(nextImp);
            const double sppG = exp::geomean(sppImp);
            cells.addRow({core::toString(sched),
                          aging ? "on" : "off", fmt(nextG), fmt(sppG),
                          fmt(nextPol / apps), fmt(sppPol / apps)});
            const std::string key = std::string(core::toString(sched))
                                    + (aging ? "_aging_on"
                                             : "_aging_off");
            report.addSummary("next_irregular_improvement_" + key,
                              nextG);
            report.addSummary("spp_irregular_improvement_" + key,
                              sppG);
        }
    }

    // Admission axis: same improvement metric, SIMT-aware scheduler,
    // idle (direct start on an idle walker) vs the buffered
    // speculative-class budget.
    auto &adm_cells = report.addTable(
        {"prefetch", "admission", "improvement", "coverage",
         "pollution"},
        "Irregular-app geomeans per admission cell (SIMT-aware)", 13);
    for (const auto kind :
         {iommu::PrefetchKind::NextPage, iommu::PrefetchKind::Spp}) {
        const std::string pf = std::string("pf-") + pfName(kind);
        for (const char *adm : {"idle", "budget"}) {
            const std::string variant =
                std::string(adm) == "idle" ? pf + "/aging-on"
                                           : pf + "/adm-" + adm;
            std::vector<double> imp;
            double cov = 0.0, pol = 0.0;
            unsigned apps = 0;
            for (const auto &app : spec.workloads) {
                if (!isIrregular(app))
                    continue;
                const auto &off = result.stats(
                    app, core::SchedulerKind::SimtAware,
                    "pf-off/aging-on");
                const auto &run = result.stats(
                    app, core::SchedulerKind::SimtAware, variant);
                imp.push_back(walkLatency(off) / walkLatency(run));
                cov += run.prefetch.coverage;
                pol += run.prefetch.pollution;
                ++apps;
            }
            const double impG = exp::geomean(imp);
            adm_cells.addRow({pf, adm, fmt(impG), fmt(cov / apps),
                              fmt(pol / apps)});
            report.addSummary(std::string(pfName(kind))
                                  + "_irregular_improvement_admission_"
                                  + adm,
                              impG);
        }
    }

    report.addNote(
        "Reading: improvement = walklat(off) / walklat(policy) within "
        "the same scheduler/aging cell,\ngeomean over the irregular "
        "apps. Next-page only helps streams; SPP's per-wavefront "
        "delta\nsignatures also cover the strided sub-streams inside "
        "the irregular apps, so its column should\ndominate. Pollution "
        "(prefetched translations evicted before first use) polices "
        "the cost side:\nunder idle admission speculative walks burn "
        "only idle walkers, so pollution is the one way a\npolicy can "
        "hurt. The admission table swaps that gate for the speculative "
        "walk class: budget\nmeters predictions per demand-dispatch "
        "window, and aged entries are cancelled before dispatch\n"
        "instead of occupying a walker.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Wasp co-design factorial: de-staggered wavefront scheduling x
 * translation prefetch x page-walk scheduler.
 *
 * The paper (§VI) leaves scheduler coordination as future work; this
 * experiment measures one concrete co-design. Wavefront side: Wasp splits
 * each CU's resident slots into leaders (issue first, win arbitration)
 * and followers (first issues pushed out by the issue-distance lead).
 * Walk side: leader-originated walks are classed speculative, so the
 * lookahead they create never delays follower demand walks, and
 * leader streams train the translation prefetcher ahead of the pack.
 *
 * Full factorial over the irregular apps: wavefront policy {rr, wasp}
 * x prefetch {off, next, spp} x walk scheduler {fcfs, simt-aware}.
 * The questions: (a) does Wasp's translation lookahead speed up the
 * follower pack, (b) does it compose with (rather than substitute
 * for) SIMT-aware walk scheduling, and (c) does leader-trained SPP
 * beat SPP alone. EXPERIMENTS.md records the measured cells.
 */
exp::Report
ablation_wavefront_sched(const Experiment &self,
                         const system::SystemConfig &base,
                         const exp::RunnerOptions &opts)
{
    constexpr iommu::PrefetchKind kinds[] = {
        iommu::PrefetchKind::Off, iommu::PrefetchKind::NextPage,
        iommu::PrefetchKind::Spp};
    constexpr const char *wfNames[] = {"rr", "wasp"};

    auto spec = fcfsVsSimt(base, workload::irregularWorkloadNames());
    for (const char *wf : wfNames) {
        for (const auto kind : kinds) {
            const bool wasp = std::string(wf) == "wasp";
            std::string name = std::string(wf) + "/pf-"
                               + iommu::toString(kind);
            spec.variants.push_back(
                {std::move(name),
                 [wasp, kind](system::SystemConfig &cfg,
                              workload::WorkloadParams &) {
                     cfg.gpu.wavefrontSched =
                         wasp ? gpu::WavefrontSchedPolicy::Wasp
                              : gpu::WavefrontSchedPolicy::RoundRobin;
                     cfg.iommu.prefetch.kind = kind;
                     // Wasp runs at the config default (idle
                     // admission): leader walks ride the speculative
                     // class on idle walk bandwidth and age-promote
                     // into the demand class. Setting walkers aside
                     // for the class starved demand at 8 walkers
                     // (irregular geomean 0.95 vs 1.02), so that
                     // policy was removed (EXPERIMENTS.md). The
                     // admission axis is swept in ablation_prefetch.
                 }});
        }
    }
    auto result = exp::runSweep(spec, opts);

    exp::Report report(self.id, self.description, spec.base);

    // Headline per-app table: every cell normalized to RR + no
    // prefetch + FCFS (the baseline of baselines), SIMT-aware walk
    // scheduling in the right half.
    auto &table = report.addTable(
        {"app", "rr:off", "wasp:off", "wasp:spp", "rr:off:simt",
         "wasp:off:simt", "wasp:spp:simt", "leader-walks"},
        "Speedup over rr/pf-off/fcfs", 14);
    for (const auto &app : spec.workloads) {
        const auto &base = result.stats(
            app, core::SchedulerKind::Fcfs, "rr/pf-off");
        const double base_t = static_cast<double>(base.runtimeTicks);
        auto rel = [&](core::SchedulerKind s, const std::string &v) {
            return base_t
                   / static_cast<double>(
                       result.stats(app, s, v).runtimeTicks);
        };
        const auto &waspSpp = result.stats(
            app, core::SchedulerKind::SimtAware, "wasp/pf-spp");
        table.addRow(
            {app, "1.000",
             fmt(rel(core::SchedulerKind::Fcfs, "wasp/pf-off")),
             fmt(rel(core::SchedulerKind::Fcfs, "wasp/pf-spp")),
             fmt(rel(core::SchedulerKind::SimtAware, "rr/pf-off")),
             fmt(rel(core::SchedulerKind::SimtAware, "wasp/pf-off")),
             fmt(rel(core::SchedulerKind::SimtAware, "wasp/pf-spp")),
             std::to_string(waspSpp.spec.leaderWalks)});
    }

    // Factorial geomeans: Wasp's gain within each prefetch/scheduler
    // cell (runtime(rr) / runtime(wasp), same pf + walk scheduler),
    // and SIMT-aware's gain within each wavefront/prefetch cell — if
    // the latter stays near its RR value, co-design composes instead
    // of substituting (ROADMAP item 1).
    auto &cells = report.addTable(
        {"prefetch", "wasp@fcfs", "wasp@simt", "simt@rr", "simt@wasp"},
        "Irregular-app geomeans per factorial cell", 12);
    for (const auto kind : kinds) {
        const std::string pf = iommu::toString(kind);
        std::vector<double> waspFcfs, waspSimt, simtRr, simtWasp;
        for (const auto &app : spec.workloads) {
            const auto &rrF = result.stats(
                app, core::SchedulerKind::Fcfs, "rr/pf-" + pf);
            const auto &rrS = result.stats(
                app, core::SchedulerKind::SimtAware, "rr/pf-" + pf);
            const auto &waF = result.stats(
                app, core::SchedulerKind::Fcfs, "wasp/pf-" + pf);
            const auto &waS = result.stats(
                app, core::SchedulerKind::SimtAware, "wasp/pf-" + pf);
            waspFcfs.push_back(exp::speedup(waF, rrF));
            waspSimt.push_back(exp::speedup(waS, rrS));
            simtRr.push_back(exp::speedup(rrS, rrF));
            simtWasp.push_back(exp::speedup(waS, waF));
        }
        const double wf = exp::geomean(waspFcfs);
        const double ws = exp::geomean(waspSimt);
        const double sr = exp::geomean(simtRr);
        const double sw = exp::geomean(simtWasp);
        cells.addRow({pf, fmt(wf), fmt(ws), fmt(sr), fmt(sw)});
        report.addSummary("wasp_irregular_speedup_" + pf + "_fcfs", wf);
        report.addSummary("wasp_irregular_speedup_" + pf + "_simt", ws);
        report.addSummary("simt_gain_rr_" + pf, sr);
        report.addSummary("simt_gain_wasp_" + pf, sw);
    }

    report.addNote(
        "Reading: wasp@X = geomean runtime(rr)/runtime(wasp) with walk "
        "scheduler X and the row's\nprefetcher; simt@Y = SIMT-aware's "
        "gain over FCFS within wavefront policy Y. If simt@wasp "
        "stays\nnear simt@rr, the co-design composes with page-walk "
        "scheduling rather than substituting for\nit — leaders only "
        "add lookahead, their walks ride the speculative class, and "
        "demand walks still\nbenefit from SJF + batching.");
    report.setRuns(std::move(result));
    return report;
}

} // namespace gpuwalk::experiments

#include "experiments.hh"

#include <sstream>

#include "mem/backing_store.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"

namespace gpuwalk::experiments {

/**
 * Table I: the baseline system configuration.
 *
 * Prints our baseline next to the paper's Table I values; every entry
 * that Table I specifies is reproduced verbatim, plus the parameters
 * the paper leaves implicit (and this model therefore had to choose).
 */
exp::Report
table1(const Experiment &self, const system::SystemConfig &cfg,
       const exp::RunnerOptions &)
{
    exp::Report report(self.id, self.description, cfg);

    std::ostringstream implicit;
    implicit
        << "Parameters the paper leaves implicit (this model's "
           "calibrated choices):\n"
        << "  resident wavefronts per CU   "
        << cfg.gpu.wavefrontsPerCu
        << " (dispatch queue refills freed slots)\n"
        << "  GPU->IOMMU hop latency       "
        << cfg.iommu.hopLatency / cfg.gpu.clockPeriod
        << " GPU cycles\n"
        << "  TLB/IOMMU port rate          1 lookup per GPU cycle\n"
        << "  walker PTE path              "
        << (cfg.iommu.useWalkCache
                ? "via a CPU-complex cache (as gem5's walker)"
                : "straight to DRAM")
        << "\n"
        << "  walk cache                   "
        << cfg.iommu.walkCache.sizeBytes / 1024 << " KB, "
        << cfg.iommu.walkCache.associativity << "-way, "
        << cfg.iommu.walkCache.hitLatency / cfg.gpu.clockPeriod
        << "-cycle hits\n"
        << "  physical frame allocation    "
        << (cfg.scrambleFrames ? "scrambled (OS-like)" : "linear");
    report.addNote(implicit.str());
    return report;
}

/**
 * Table II: the twelve GPU benchmarks and their memory footprints.
 *
 * Regenerates the table from the workload registry and verifies, by
 * actually allocating each benchmark's address space, that the mapped
 * footprint matches the Table II value.
 */
exp::Report
table2(const Experiment &self, const system::SystemConfig &base,
       const exp::RunnerOptions &opts)
{
    exp::SweepSpec spec(base);
    spec.workloads = workload::allWorkloadNames();
    // No simulation: each job only builds the benchmark's address
    // space and measures the eagerly mapped footprint.
    spec.body = [](const exp::JobSpec &job) {
        mem::BackingStore store;
        vm::FrameAllocator frames(mem::Addr(16) << 30);
        vm::AddressSpace as(store, frames);
        auto gen = workload::makeWorkload(job.workload);
        gen->generate(as, job.params);

        exp::RunResult res;
        res.extra["mapped_mb"] =
            static_cast<double>(as.footprintBytes())
            / (1024.0 * 1024.0);
        return res;
    };
    auto result = exp::runSweep(spec, opts);

    exp::Report report(self.id, self.description);
    auto &table = report.addTable({"Benchmark", "Class",
                                   "Table II (MB)", "mapped (MB)",
                                   "  Description"});

    for (const auto &name : spec.workloads) {
        // A copy: the generator (and its info) dies with the statement.
        const auto info = workload::makeWorkload(name)->info();
        const double mapped_mb =
            result.at(name).extra.at("mapped_mb");
        table.addRow({name, info.irregular ? "irregular" : "regular",
                      fmt(info.footprintMB, 2), fmt(mapped_mb, 2),
                      "  " + std::string(info.description)});
    }

    report.addNote(
        "(mapped footprint = eagerly page-mapped buffers at "
        "footprintScale=1; small\ndeltas come from page rounding and "
        "vector operands)");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 2: performance impact of page walk scheduling.
 *
 * Four representative irregular applications (MVT, ATX, BIC, GEV)
 * under Random, FCFS, and SIMT-aware scheduling, each normalized to
 * the Random scheduler — the paper's "schedule matters by >2.1x"
 * motivation figure.
 */
exp::Report
fig02(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    exp::SweepSpec spec(base);
    spec.workloads = workload::motivationWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Random,
                       core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    auto result = exp::runSweep(spec, opts);

    // Approximate values eyeballed from the paper's Figure 2 bars.
    const std::map<std::string, std::pair<double, double>> paper{
        {"MVT", {1.35, 1.75}},
        {"ATX", {1.30, 1.70}},
        {"BIC", {1.35, 1.80}},
        {"GEV", {1.40, 2.10}},
    };

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable({"app", "random", "fcfs",
                                   "simt-aware", "paper:fcfs",
                                   "paper:simt"});

    MeanTracker mean_fcfs, mean_simt;
    for (const auto &app : spec.workloads) {
        const auto &random =
            result.stats(app, core::SchedulerKind::Random);
        const double f = exp::speedup(
            result.stats(app, core::SchedulerKind::Fcfs), random);
        const double s = exp::speedup(
            result.stats(app, core::SchedulerKind::SimtAware), random);
        mean_fcfs.add(f);
        mean_simt.add(s);
        table.addRow({app, "1.000", fmt(f), fmt(s),
                      fmt(paper.at(app).first, 2),
                      fmt(paper.at(app).second, 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", "1.000", fmt(mean_fcfs.mean()),
                  fmt(mean_simt.mean()), "-", "-"});
    report.addSummary("geomean_fcfs_over_random", mean_fcfs.mean());
    report.addSummary("geomean_simt_over_random", mean_simt.mean());

    report.addNote("(paper columns are approximate bar heights from "
                   "Fig. 2; the paper's headline is a >2.1x spread\n"
                   "between the best and worst schedule on GEV)");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 3: distribution of the number of memory accesses ("work")
 * needed to service the address translation needs of SIMD
 * instructions, under the baseline FCFS scheduler.
 *
 * Buckets follow the paper exactly: 1-16, 17-32, 33-48, 49-64, 65-80,
 * 81-256 memory accesses per instruction (instructions with no walks
 * are excluded).
 */
exp::Report
fig03(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    exp::SweepSpec spec(base);
    spec.workloads = workload::motivationWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs};
    auto result = exp::runSweep(spec, opts);

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable({"app", "1-16", "17-32", "33-48",
                                   "49-64", "65-80", "81-256", "257+"},
                                  "", /*width=*/9);

    for (const auto &app : spec.workloads) {
        const auto &stats =
            result.stats(app, core::SchedulerKind::Fcfs);
        std::vector<std::string> row{app};
        for (const double fraction : stats.walks.workBucketFractions)
            row.push_back(fmt(fraction, 3));
        table.addRow(std::move(row));
    }

    report.addNote(
        "paper (Fig. 3): 27-61% of instructions fall in 1-16 and "
        "33-70% need 49+ accesses;\nGEV has ~31% of instructions at "
        "65+ accesses. The same bimodal shape — coalesced\nvector "
        "ops in the first bucket, 64-lane divergent loads around "
        "49-64+ — should appear above.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 5: fraction of SIMD instructions whose page walk requests
 * are service-interleaved with requests from other instructions,
 * under the baseline FCFS scheduler. Instructions with fewer than two
 * walks are excluded (they cannot interleave).
 */
exp::Report
fig05(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    exp::SweepSpec spec(base);
    spec.workloads = workload::motivationWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs};
    auto result = exp::runSweep(spec, opts);

    // Approximate bar heights from the paper's Figure 5.
    const std::map<std::string, double> paper{
        {"MVT", 0.45}, {"ATX", 0.77}, {"BIC", 0.55}, {"GEV", 0.70}};

    exp::Report report(self.id, self.description, spec.base);
    auto &table =
        report.addTable({"app", "interleaved", "paper(approx)"});

    for (const auto &app : spec.workloads) {
        const auto &stats =
            result.stats(app, core::SchedulerKind::Fcfs);
        table.addRow({app, fmt(stats.walks.interleavedFraction),
                      fmt(paper.at(app), 2)});
    }

    report.addNote("paper (Fig. 5): 45-77% of multi-walk instructions "
                   "interleave under FCFS because the\nshared L2 TLB "
                   "multiplexes the per-CU miss streams.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 6: average latency of the first- vs last-completed page walk
 * per SIMD instruction (FCFS baseline), normalized to the first-
 * completed latency. Multi-walk instructions only.
 */
exp::Report
fig06(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    exp::SweepSpec spec(base);
    spec.workloads = workload::motivationWorkloadNames();
    spec.schedulers = {core::SchedulerKind::Fcfs};
    auto result = exp::runSweep(spec, opts);

    // Approximate last/first ratios from the paper's Figure 6.
    const std::map<std::string, double> paper{
        {"MVT", 2.2}, {"ATX", 3.0}, {"BIC", 2.4}, {"GEV", 2.8}};

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable(
        {"app", "first", "last", "last/first", "paper(approx)"});

    for (const auto &app : spec.workloads) {
        const auto &stats =
            result.stats(app, core::SchedulerKind::Fcfs);
        const double first = stats.walks.avgFirstCompletedLatency;
        const double last = stats.walks.avgLastCompletedLatency;
        const double ratio = first > 0 ? last / first : 0.0;
        table.addRow(
            {app, "1.000", fmt(ratio), fmt(ratio),
             fmt(paper.at(app), 1)});
    }

    report.addNote(
        "paper (Fig. 6): the last-completed walk's latency is 2-3x "
        "the first's, i.e. an\ninstruction keeps stalling long after "
        "its first translation returned — the headroom\nthe "
        "SIMT-aware scheduler's batching recovers.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 8: speedup of the SIMT-aware page walk scheduler over the
 * FCFS baseline, for all twelve benchmarks (six irregular + six
 * regular). The paper's headline result: +30% geomean (up to +41%)
 * on irregular applications, no change on regular ones.
 */
exp::Report
fig08(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    auto spec = fcfsVsSimt(base, workload::allWorkloadNames());
    auto result = exp::runSweep(spec, opts);

    // Approximate bar heights from the paper's Figure 8.
    const std::map<std::string, double> paper{
        {"XSB", 1.25}, {"MVT", 1.35}, {"ATX", 1.30}, {"NW", 1.15},
        {"BIC", 1.35}, {"GEV", 1.41}, {"SSP", 1.00}, {"MIS", 1.00},
        {"CLR", 1.00}, {"BCK", 1.00}, {"KMN", 1.00}, {"HOT", 1.00}};

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable(
        {"app", "class", "speedup", "paper(approx)"});

    MeanTracker irregular_mean, regular_mean;
    for (const auto &app : spec.workloads) {
        const bool irregular = isIrregular(app);
        const double s = exp::speedup(
            result.stats(app, core::SchedulerKind::SimtAware),
            result.stats(app, core::SchedulerKind::Fcfs));
        (irregular ? irregular_mean : regular_mean).add(s);
        table.addRow({app, irregular ? "irregular" : "regular", fmt(s),
                      fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow(
        {"GEOMEAN", "irregular", fmt(irregular_mean.mean()), "1.30"});
    table.addRow(
        {"GEOMEAN", "regular", fmt(regular_mean.mean()), "1.00"});
    report.addSummary("geomean_speedup_irregular",
                      irregular_mean.mean());
    report.addSummary("geomean_speedup_regular", regular_mean.mean());

    report.addNote("paper (Fig. 8): +30% geomean, up to +41%, on the "
                   "six irregular apps; regular apps unchanged.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 9: GPU execution-stage stall cycles with the SIMT-aware
 * scheduler, normalized to FCFS. Stall cycles are ticks during which
 * a CU has resident wavefronts but none can execute.
 */
exp::Report
fig09(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    auto spec = fcfsVsSimt(base, workload::allWorkloadNames());
    auto result = exp::runSweep(spec, opts);

    const std::map<std::string, double> paper{
        {"XSB", 0.80}, {"MVT", 0.74}, {"ATX", 0.75}, {"NW", 0.85},
        {"BIC", 0.74}, {"GEV", 0.71}, {"SSP", 1.00}, {"MIS", 1.00},
        {"CLR", 1.00}, {"BCK", 1.00}, {"KMN", 1.00}, {"HOT", 1.00}};

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable(
        {"app", "class", "norm.stalls", "paper(approx)"});

    MeanTracker irregular_mean;
    for (const auto &app : spec.workloads) {
        const bool irregular = isIrregular(app);
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const auto &simt =
            result.stats(app, core::SchedulerKind::SimtAware);
        const double norm =
            fcfs.stallTicks > 0
                ? static_cast<double>(simt.stallTicks)
                      / static_cast<double>(fcfs.stallTicks)
                : 1.0;
        if (irregular)
            irregular_mean.add(norm);
        table.addRow({app, irregular ? "irregular" : "regular",
                      fmt(norm), fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", "irregular", fmt(irregular_mean.mean()),
                  "0.77"});
    report.addSummary("geomean_norm_stalls_irregular",
                      irregular_mean.mean());

    report.addNote("paper (Fig. 9): 23% average stall reduction (up "
                   "to 29%) on irregular apps; regular apps "
                   "unchanged.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 10: the latency gap between the first- and last-completed
 * page walk per instruction with the SIMT-aware scheduler, normalized
 * to the gap under FCFS. Multi-walk instructions only.
 */
exp::Report
fig10(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    auto spec = fcfsVsSimt(base, workload::irregularWorkloadNames());
    auto result = exp::runSweep(spec, opts);

    const std::map<std::string, double> paper{
        {"XSB", 0.66}, {"MVT", 0.60}, {"ATX", 0.55},
        {"NW", 0.75},  {"BIC", 0.60}, {"GEV", 0.62}};

    exp::Report report(self.id, self.description, spec.base);
    auto &table =
        report.addTable({"app", "norm.gap", "paper(approx)"});

    MeanTracker mean;
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const auto &simt =
            result.stats(app, core::SchedulerKind::SimtAware);
        const double norm =
            fcfs.walks.avgLatencyGap > 0
                ? simt.walks.avgLatencyGap / fcfs.walks.avgLatencyGap
                : 1.0;
        mean.add(norm);
        table.addRow({app, fmt(norm), fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", fmt(mean.mean()), "0.63"});
    report.addSummary("geomean_norm_latency_gap", mean.mean());

    report.addNote(
        "paper (Fig. 10): batching shrinks the gap by 37% on average. "
        "See EXPERIMENTS.md for where this\nmodel's gap behaviour "
        "deviates (saturated workloads trade gap for walk-count "
        "reduction).");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 11: number of page walk requests (i.e. TLB misses) with the
 * SIMT-aware scheduler, normalized to FCFS. The reduction comes from
 * better intra-wavefront TLB locality: delaying translation-heavy
 * instructions keeps them from thrashing the shared L2 TLB.
 */
exp::Report
fig11(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    auto spec = fcfsVsSimt(base, workload::irregularWorkloadNames());
    auto result = exp::runSweep(spec, opts);

    const std::map<std::string, double> paper{
        {"XSB", 0.85}, {"MVT", 0.75}, {"ATX", 0.78},
        {"NW", 0.85},  {"BIC", 0.76}, {"GEV", 0.70}};

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable(
        {"app", "fcfs", "simt", "normalized", "paper(approx)"});

    MeanTracker mean;
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const auto &simt =
            result.stats(app, core::SchedulerKind::SimtAware);
        const double norm = static_cast<double>(simt.walkRequests)
                            / static_cast<double>(fcfs.walkRequests);
        mean.add(norm);
        table.addRow({app, std::to_string(fcfs.walkRequests),
                      std::to_string(simt.walkRequests), fmt(norm),
                      fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", "-", "-", fmt(mean.mean()), "0.79"});
    report.addSummary("geomean_norm_walks", mean.mean());

    report.addNote("paper (Fig. 11): 21% average reduction (up to "
                   "30%) in page walks.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 12: number of distinct wavefronts accessing the GPU's shared
 * L2 TLB per fixed-size epoch (1024 L2 accesses), SIMT-aware
 * normalized to FCFS. Fewer distinct wavefronts per epoch = less TLB
 * contention = the mechanism behind Figure 11's walk reduction.
 */
exp::Report
fig12(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    auto spec = fcfsVsSimt(base, workload::irregularWorkloadNames());
    auto result = exp::runSweep(spec, opts);

    const std::map<std::string, double> paper{
        {"XSB", 0.60}, {"MVT", 0.55}, {"ATX", 0.55},
        {"NW", 0.70},  {"BIC", 0.55}, {"GEV", 0.52}};

    exp::Report report(self.id, self.description, spec.base);
    auto &table = report.addTable(
        {"app", "fcfs", "simt", "normalized", "paper(approx)"});

    MeanTracker mean;
    for (const auto &app : spec.workloads) {
        const auto &fcfs =
            result.stats(app, core::SchedulerKind::Fcfs);
        const auto &simt =
            result.stats(app, core::SchedulerKind::SimtAware);
        const double norm =
            fcfs.avgWavefrontsPerEpoch > 0
                ? simt.avgWavefrontsPerEpoch
                      / fcfs.avgWavefrontsPerEpoch
                : 1.0;
        mean.add(norm);
        table.addRow({app, fmt(fcfs.avgWavefrontsPerEpoch, 1),
                      fmt(simt.avgWavefrontsPerEpoch, 1), fmt(norm),
                      fmt(paper.at(app), 2)});
    }
    table.addRule();
    table.addRow({"GEOMEAN", "-", "-", fmt(mean.mean()), "0.58"});
    report.addSummary("geomean_norm_wavefronts_per_epoch",
                      mean.mean());

    report.addNote(
        "paper (Fig. 12): 42% average reduction in distinct "
        "wavefronts per epoch — the scheduler\nimplicitly throttles "
        "translation-heavy wavefronts, protecting TLB locality.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 13: sensitivity of the SIMT-aware speedup to the shared L2
 * TLB size and the number of page table walkers:
 *   (a) 1024-entry L2 TLB, 8 walkers
 *   (b) 512-entry L2 TLB, 16 walkers
 *   (c) 1024-entry L2 TLB, 16 walkers
 * More translation resources shrink the bottleneck and hence the
 * scheduling headroom — the speedups must shrink monotonically from
 * the baseline through (a)/(b) to (c).
 */
exp::Report
fig13(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    struct Variant
    {
        std::string name;
        unsigned l2Entries;
        unsigned walkers;
        double paperMean;
    };
    const std::vector<Variant> variants{
        {"(a) 1024 L2 TLB, 8 walkers", 1024, 8, 1.25},
        {"(b) 512 L2 TLB, 16 walkers", 512, 16, 1.084},
        {"(c) 1024 L2 TLB, 16 walkers", 1024, 16, 1.053},
    };

    auto spec = fcfsVsSimt(base, workload::irregularWorkloadNames());
    for (const auto &v : variants) {
        const unsigned l2 = v.l2Entries;
        const unsigned walkers = v.walkers;
        spec.variants.push_back(
            {v.name, [l2, walkers](system::SystemConfig &cfg,
                                   workload::WorkloadParams &) {
                 cfg.gpuTlb.l2Entries = l2;
                 cfg.iommu.numWalkers = walkers;
             }});
    }
    auto result = exp::runSweep(spec, opts);

    exp::Report report(self.id, self.description, spec.base);
    for (const auto &v : variants) {
        auto &table = report.addTable({"app", "speedup"});
        table.title = v.name;

        MeanTracker mean;
        for (const auto &app : spec.workloads) {
            const auto &fcfs = result.stats(
                app, core::SchedulerKind::Fcfs, v.name);
            const auto &simt = result.stats(
                app, core::SchedulerKind::SimtAware, v.name);
            const double s = exp::speedup(simt, fcfs);
            mean.add(s);
            table.addRow({app, fmt(s)});
        }
        table.addRule();
        table.addRow({"GEOMEAN", fmt(mean.mean())});
        report.addNote("paper (Fig. 13" + v.name.substr(1, 1)
                       + "): mean speedup ~" + fmt(v.paperMean, 3));
        report.addSummary("geomean_speedup_" + v.name.substr(1, 1),
                          mean.mean());
    }

    report.addNote("paper: benefits shrink as TLB capacity or walker "
                   "bandwidth grow, but SIMT-aware never loses.");
    report.setRuns(std::move(result));
    return report;
}

/**
 * Figure 14: sensitivity of the SIMT-aware speedup to the IOMMU
 * buffer size — the scheduler's lookahead window:
 *   (a) 128 entries (half the baseline)
 *   (b) 512 entries (double the baseline)
 * A smaller window limits reordering opportunity; a larger one
 * increases it. Speedups must grow monotonically with buffer size.
 */
exp::Report
fig14(const Experiment &self, const system::SystemConfig &base,
      const exp::RunnerOptions &opts)
{
    struct Variant
    {
        std::string name;
        unsigned buffer;
        double paperMean;
    };
    const std::vector<Variant> variants{
        {"(a) 128-entry IOMMU buffer", 128, 1.13},
        {"(baseline) 256-entry IOMMU buffer", 256, 1.30},
        {"(b) 512-entry IOMMU buffer", 512, 1.50},
    };

    auto spec = fcfsVsSimt(base, workload::irregularWorkloadNames());
    for (const auto &v : variants) {
        const unsigned buffer = v.buffer;
        spec.variants.push_back(
            {v.name, [buffer](system::SystemConfig &cfg,
                              workload::WorkloadParams &) {
                 cfg.iommu.bufferEntries = buffer;
             }});
    }
    auto result = exp::runSweep(spec, opts);

    exp::Report report(self.id, self.description, spec.base);
    for (const auto &v : variants) {
        auto &table = report.addTable({"app", "speedup"});
        table.title = v.name;

        MeanTracker mean;
        for (const auto &app : spec.workloads) {
            const auto &fcfs = result.stats(
                app, core::SchedulerKind::Fcfs, v.name);
            const auto &simt = result.stats(
                app, core::SchedulerKind::SimtAware, v.name);
            const double s = exp::speedup(simt, fcfs);
            mean.add(s);
            table.addRow({app, fmt(s)});
        }
        table.addRule();
        table.addRow({"GEOMEAN", fmt(mean.mean())});
        report.addNote("paper: mean speedup ~" + fmt(v.paperMean, 2));
        report.addSummary(
            "geomean_speedup_" + std::to_string(v.buffer),
            mean.mean());
    }

    report.addNote(
        "paper (Fig. 14): 13% at 128 entries, 30% at 256, 50% at 512 "
        "— lookahead is the scheduler's\nraw material.");
    report.setRuns(std::move(result));
    return report;
}

} // namespace gpuwalk::experiments

#include "experiments.hh"

namespace gpuwalk::experiments {

namespace {

const Experiment experiments[] = {
    {"table1", "Table I",
     "baseline system configuration (parameters the paper specifies, "
     "reproduced verbatim)",
     table1},
    {"table2", "Table II", "GPU benchmarks and their memory footprints",
     table2},
    {"fig02", "Figure 2",
     "Performance impact of page walk scheduling (speedup over the "
     "random scheduler)",
     fig02},
    {"fig03", "Figure 3",
     "Per-instruction page-walk memory-access distribution (FCFS)",
     fig03},
    {"fig05", "Figure 5",
     "Fraction of multi-walk instructions with interleaved walk service "
     "(FCFS)",
     fig05},
    {"fig06", "Figure 6",
     "First- vs last-completed walk latency per instruction (FCFS, "
     "normalized to first)",
     fig06},
    {"fig08", "Figure 8", "Speedup of SIMT-aware walk scheduling over FCFS",
     fig08, {},
     // SIMT-aware beats FCFS on the irregular apps by over 10%.
     {{"geomean_speedup_irregular", Claim::Gt, 1.1}}},
    {"fig09", "Figure 9",
     "CU stall cycles under SIMT-aware scheduling (normalized to FCFS)",
     fig09},
    {"fig10", "Figure 10",
     "First-to-last walk latency gap, SIMT-aware normalized to FCFS",
     fig10},
    {"fig11", "Figure 11",
     "Page walk count under SIMT-aware scheduling (normalized to FCFS)",
     fig11},
    {"fig12", "Figure 12",
     "Distinct wavefronts per L2 TLB epoch, SIMT-aware normalized to "
     "FCFS",
     fig12},
    {"fig13", "Figure 13",
     "SIMT-aware speedup vs FCFS with more translation resources", fig13},
    {"fig14", "Figure 14",
     "SIMT-aware speedup vs FCFS with varying IOMMU buffer size "
     "(scheduler lookahead)",
     fig14},
    {"ablation_scheduler", "Ablation",
     "Decomposing the SIMT-aware speedup (all values vs FCFS)",
     ablation_scheduler, {},
     // Figs. 2 and 8: random loses to FCFS, batching alone already
     // beats it, and the full SIMT-aware scheduler by over 10%.
     {{"geomean_speedup_random", Claim::Lt, 1.0},
      {"geomean_speedup_batch_only", Claim::Gt, 1.0},
      {"geomean_speedup_simt_aware", Claim::Gt, 1.1}}},
    {"ablation_large_pages", "Ablation (paper SVI)",
     "4 KB base pages vs 2 MB large pages", ablation_large_pages},
    {"ablation_virtual_cache", "Ablation (virtual caches)",
     "Physical L1s (translate-before-access) vs virtual L1s "
     "(translate-on-miss)",
     ablation_virtual_cache},
    {"ablation_prefetch", "Ablation (prefetch factorial)",
     "Translation prefetch {off, spp} x scheduler {fcfs, simt-aware}",
     ablation_prefetch, {"prefetch"},
     {{"spp_irregular_improvement_fcfs", Claim::Gt, 0.0},
      {"spp_irregular_improvement_simt-aware", Claim::Gt, 0.0}}},
    {"ablation_multiprogram", "Ablation (multi-program)",
     "Irregular aggressor + regular victim sharing the translation "
     "hardware",
     ablation_multiprogram},
    {"tenant_mix", "Tenant mix (QoS fairness)",
     "8-tenant reference mix: per-tenant slowdown and Jain index per "
     "walk scheduler",
     tenant_mix, {},
     // Weighted share is fair enough, no less fair than FCFS, fairer
     // than plain SIMT-aware, and no worse in its worst case.
     {{"jain_weighted-share", Claim::Ge, 0.35},
      {"jain_weighted-share", Claim::Ge, "jain_fcfs"},
      {"jain_weighted-share", Claim::Gt, "jain_simt-aware"},
      {"max_slowdown_weighted-share", Claim::Le, "max_slowdown_fcfs"},
      {"max_slowdown_weighted-share", Claim::Le,
       "max_slowdown_simt-aware"}}},
    {"oversubscription", "Oversubscription",
     "Demand paging under shrinking frame budgets, per scheduler",
     oversubscription, {"oversubscription"},
     // Demand paging never beats resident, and every cell faults.
     {{"geomean_slowdown_*", Claim::Ge, 1.0},
      {"fault_latency_samples_*", Claim::Gt, 0.0}}},
};

} // namespace

std::span<const Experiment>
all()
{
    return experiments;
}

const Experiment *
find(const std::string &name)
{
    for (const auto &e : experiments) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

bool
isIrregular(const std::string &app)
{
    return workload::makeWorkload(app)->info().irregular;
}

exp::SweepSpec
fcfsVsSimt(const system::SystemConfig &base,
           std::vector<std::string> workloads)
{
    exp::SweepSpec spec(base);
    spec.workloads = std::move(workloads);
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    return spec;
}

} // namespace gpuwalk::experiments

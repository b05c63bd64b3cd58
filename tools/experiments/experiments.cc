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
     fig08},
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
     ablation_scheduler},
    {"ablation_large_pages", "Ablation (paper SVI)",
     "4 KB base pages vs 2 MB large pages", ablation_large_pages},
    {"ablation_virtual_cache", "Ablation (virtual caches)",
     "Physical L1s (translate-before-access) vs virtual L1s "
     "(translate-on-miss)",
     ablation_virtual_cache},
    {"ablation_prefetch", "Ablation (prefetch factorial)",
     "Translation prefetch {off, spp} x scheduler {fcfs, simt-aware}",
     ablation_prefetch, {"prefetch"}},
    {"ablation_multiprogram", "Ablation (multi-program)",
     "Irregular aggressor + regular victim sharing the translation "
     "hardware",
     ablation_multiprogram},
    {"tenant_mix", "Tenant mix (QoS fairness)",
     "8-tenant reference mix: per-tenant slowdown and Jain index per "
     "walk scheduler",
     tenant_mix},
    {"oversubscription", "Oversubscription",
     "Demand paging under shrinking frame budgets, per scheduler",
     oversubscription, {"oversubscription"}},
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

system::SystemConfig
withTenantWeights(system::SystemConfig cfg,
                  const std::vector<workload::TenantSpec> &specs)
{
    for (unsigned i = 0; i < specs.size(); ++i) {
        if (specs[i].weight > 1) {
            cfg.qos.shareWeights.resize(specs.size(), 1);
            cfg.qos.shareWeights[i] = specs[i].weight;
        }
    }
    return cfg;
}

void
loadTenants(system::System &sys,
            const std::vector<workload::TenantSpec> &specs)
{
    for (unsigned i = 0; i < specs.size(); ++i) {
        const auto ctx = i == 0 ? tlb::defaultContext : sys.createContext();
        sys.loadBenchmarkInContext(specs[i].workload, specs[i].params,
                                   /*app_id=*/i, ctx, specs[i].arrivalTick);
    }
}

} // namespace gpuwalk::experiments

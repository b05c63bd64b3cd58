/**
 * @file
 * Multi-tenant mix generation: a deterministic plan of N tenants with
 * heterogeneous workloads, footprints, and arrival times, for the
 * QoS/fairness experiments (the paper's §VII discussion of shared
 * IOMMUs under MASK-style multi-application loads).
 *
 * The generator only *plans* — each entry names a registry workload,
 * its parameters, and an arrival tick. exp::tenantLoads() turns the
 * plan into the loads of one run (a context per tenant, churned
 * tenants loaded at their arrival tick).
 */

#ifndef GPUWALK_WORKLOAD_TENANT_MIX_HH
#define GPUWALK_WORKLOAD_TENANT_MIX_HH

#include <string>
#include <vector>

#include "sim/ticks.hh"
#include "workload/workload.hh"

namespace gpuwalk::workload {

/** One tenant of a generated mix. */
struct TenantSpec
{
    /** Registry abbreviation of the tenant's workload. */
    std::string workload;

    /** Trace-generation parameters (footprint, wavefronts, seed). */
    WorkloadParams params;

    /** Arrival: 0 = loaded before start; else joins at this tick. */
    sim::Tick arrivalTick = 0;

    /** Weight for the weighted-share scheduler (1 = equal). */
    std::uint32_t weight = 1;
};

/** Shape of a generated tenant mix. */
struct TenantMixConfig
{
    unsigned numTenants = 8;

    /** Master seed; tenant workloads derive per-tenant streams. */
    std::uint64_t seed = 1;

    /** Wavefronts per tenant (split across shared CUs). */
    unsigned wavefrontsPerTenant = 16;

    unsigned instructionsPerWavefront = 8;

    /**
     * Footprints are drawn from [footprintScaleMin, footprintScaleMax]
     * so tenants stress the shared TLBs and PWCs unevenly.
     */
    double footprintScaleMin = 0.02;
    double footprintScaleMax = 0.10;

    sim::Cycles computeCycles = 20;

    /**
     * Fraction of tenants (rounded down) that arrive mid-run, spread
     * seeded-uniformly over (0, churnWindowTicks]. 0 disables churn.
     */
    double churnFraction = 0.0;
    sim::Tick churnWindowTicks = 2'000'000;

    /**
     * Give every second tenant double weight (weighted-share runs);
     * false = all weights 1.
     */
    bool alternateWeights = false;
};

/**
 * Generates @p cfg.numTenants tenant specs: workloads cycle through
 * the irregular-then-regular registry (maximal divergence
 * heterogeneity), footprints and arrivals are drawn from @p cfg's
 * seeded stream. Deterministic: equal configs yield equal plans.
 */
std::vector<TenantSpec> generateTenantMix(const TenantMixConfig &cfg);

} // namespace gpuwalk::workload

#endif // GPUWALK_WORKLOAD_TENANT_MIX_HH

/**
 * @file
 * Whole-system configuration — the reproduction of Table I.
 */

#ifndef GPUWALK_SYSTEM_SYSTEM_CONFIG_HH
#define GPUWALK_SYSTEM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>

#include "core/walk_scheduler.hh"
#include "gpu/gpu_config.hh"
#include "iommu/iommu.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/audit.hh"
#include "tlb/tlb_hierarchy.hh"
#include "trace/trace.hh"
#include "vm/gmmu.hh"

namespace gpuwalk::system {

/** Every knob of the simulated system, defaulting to Table I. */
struct SystemConfig
{
    gpu::GpuConfig gpu;                ///< 2 GHz, 8 CUs, 64-wide wf
    tlb::TlbHierarchyConfig gpuTlb;    ///< 32-entry L1 / 512-entry L2
    iommu::IommuConfig iommu;          ///< 256 buffer, 8 walkers, ...
    mem::DramConfig dram;              ///< DDR3-1600, 2ch x 2rk x 16bk

    /** Per-CU L1 data cache: 32 KB, 16-way, 64 B (Table I). */
    mem::CacheConfig l1d{"l1d", 32 * 1024, 16, mem::cacheLineSize,
                         1 * 500, 1 * 500, 64};

    /** Shared L2 data cache: 4 MB, 16-way, 64 B (Table I). */
    mem::CacheConfig l2d{"l2d", 4 * 1024 * 1024, 16, mem::cacheLineSize,
                         16 * 500, 4 * 500, 256};

    /** Page-walk service policy (the experiments' variable). */
    core::SchedulerKind scheduler = core::SchedulerKind::Fcfs;
    core::SimtSchedulerConfig simt;

    /** Cross-tenant QoS knobs; only the weighted-share scheduler
     *  reads them. */
    core::QosSchedulerConfig qos;

    std::uint64_t schedulerSeed = 1;

    /**
     * When set, overrides @ref scheduler: the System calls this to
     * build its walk scheduler. This is the extension point for
     * user-defined policies (see examples/custom_scheduler.cpp).
     */
    std::function<std::unique_ptr<core::WalkScheduler>()>
        schedulerFactory;

    /**
     * Demand paging / memory oversubscription (the GMMU). Off by
     * default: fully resident runs never construct the GMMU and stay
     * byte-identical to the eager-mapping simulator. When enabled the
     * knobs print (they change simulated behaviour, so they belong in
     * the config fingerprint).
     */
    vm::GmmuConfig gmmu;

    /** Physical memory backing the frame allocator. */
    mem::Addr physMemBytes = mem::Addr(8) << 30;

    /**
     * Walk-lifecycle tracing (off by default). Observation-only: it
     * never perturbs simulated behaviour, so it is excluded from
     * print() and hence from config fingerprints.
     */
    trace::TraceConfig trace;

    /**
     * End-of-run conservation auditing (off by default). Like tracing,
     * observation-only and excluded from print() and hence from config
     * fingerprints.
     */
    sim::AuditConfig audit;

    /**
     * Test-only extension point: when set, the System routes the TLB
     * hierarchy's miss path through the TranslationService this
     * returns instead of the IOMMU directly (which is passed in,
     * along with the system event queue and request table). The
     * fault-injection tests
     * use it to misbehave at the TLB↔IOMMU boundary inside an
     * otherwise-real System. The caller keeps ownership of the
     * returned service, which must outlive the System. Excluded from
     * print().
     */
    std::function<tlb::TranslationService *(sim::EventQueue &,
                                            tlb::TranslationTable &,
                                            tlb::TranslationService &)>
        translationInterposer;

    /** The paper's baseline configuration (Table I verbatim). */
    static SystemConfig
    baseline()
    {
        return SystemConfig{};
    }

    /** Prints the configuration as a Table I-style listing. */
    void print(std::ostream &os) const;
};

} // namespace gpuwalk::system

#endif // GPUWALK_SYSTEM_SYSTEM_CONFIG_HH

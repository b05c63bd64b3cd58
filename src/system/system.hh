/**
 * @file
 * The full simulated system (Figure 1 of the paper): GPU compute
 * units behind a TLB hierarchy and data caches, the IOMMU with its
 * scheduler/walkers/PWCs, a shared x86-64 page table in functional
 * memory, and the DDR3 memory system that both the data path and the
 * walk path contend for.
 */

#ifndef GPUWALK_SYSTEM_SYSTEM_HH
#define GPUWALK_SYSTEM_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "gpu/gpu.hh"
#include "iommu/iommu.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/channel_port.hh"
#include "mem/dram_controller.hh"
#include "sim/audit.hh"
#include "sim/event_queue.hh"
#include "sim/port.hh"
#include "system/system_config.hh"
#include "tlb/channel_port.hh"
#include "tlb/tlb_hierarchy.hh"
#include "tlb/translating_port.hh"
#include "trace/trace.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"
#include "vm/gmmu.hh"
#include "workload/workload.hh"

namespace gpuwalk::system {

/** Everything a run produces, for the experiment harnesses. */
struct RunStats
{
    sim::Tick runtimeTicks = 0;    ///< kernel runtime
    sim::Tick stallTicks = 0;      ///< summed CU stall time (Fig. 9)
    std::uint64_t instructions = 0;
    /** Per-app completion ticks for multi-program runs. */
    std::vector<sim::Tick> appFinishTicks;
    /** Simulation events executed by the run's event queue — with a
     *  wall-clock measurement this yields events/sec, the headline
     *  metric of the calendar-queue core (BENCH_eventcore.json). */
    std::uint64_t eventsExecuted = 0;
    std::uint64_t translationRequests = 0; ///< reaching the IOMMU
    std::uint64_t walkRequests = 0;        ///< page walks (Fig. 11)
    std::uint64_t walksCompleted = 0;
    double avgWavefrontsPerEpoch = 0;      ///< Fig. 12 metric
    iommu::WalkMetricsSummary walks;       ///< Figs. 3/5/6/10

    /** Queue-wait / walker-service / per-level latency breakdown. */
    iommu::LatencyBreakdownSummary latency;

    /** True when walk-lifecycle tracing was enabled for the run. */
    bool traced = false;

    /** FNV-1a digest of the retained trace (0 when not traced). */
    std::uint64_t traceDigest = 0;

    /** Trace events recorded / dropped by the bounded ring. */
    std::uint64_t traceEvents = 0;
    std::uint64_t traceDropped = 0;

    /** True when conservation auditing was enabled for the run. */
    bool audited = false;

    /** Invariant evaluations performed (periodic + final). */
    std::uint64_t auditChecks = 0;

    /** Total invariant violations recorded (0 for a clean run). */
    std::uint64_t auditViolations = 0;

    /** The recorded violations (bounded; see sim::Auditor). */
    std::vector<sim::AuditViolation> auditFindings;

    /** Per-tenant walk-path accounting for multi-tenant runs. */
    struct TenantStats
    {
        std::uint16_t ctx = 0;            ///< tlb::ContextId
        std::uint64_t walkRequests = 0;
        std::uint64_t walksCompleted = 0;
        std::uint64_t dispatches = 0;     ///< scheduler-mediated picks
        std::uint64_t queueWaitTicks = 0;
        std::uint64_t serviceTicks = 0;   ///< cumulative walker service
        sim::Tick finishTick = 0;         ///< last bound app's finish
    };

    /**
     * One entry per active address space, populated only when the run
     * had more than one context — single-tenant stats stay bit- and
     * byte-identical to the pre-ASID simulator.
     */
    std::vector<TenantStats> tenants;

    /** Demand-paging accounting; gmmu.enabled is false for fully
     *  resident runs (their stats stay byte-identical). */
    vm::GmmuSummary gmmu;

    /** Translation-prefetcher accounting; prefetch.enabled is false
     *  when --prefetch=off (those stats stay byte-identical). */
    iommu::PrefetchSummary prefetch;

    /** Speculative walk-class accounting; all-zero unless Wasp or a
     *  non-idle --spec-admission put walks in the class. */
    iommu::SpecSummary spec;

    /** Memory instructions issued by Wasp leader slots (0 off-Wasp). */
    std::uint64_t leaderIssues = 0;
};

/** Owns and wires every component; one System per simulation run. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    /**
     * Generates @p workload_abbrev's trace and loads it on the GPU.
     * Multi-program runs pass distinct @p app_id values; all apps
     * share the address space (disjoint regions), the TLBs, and the
     * IOMMU — the contention scenario of the paper's QoS discussion.
     */
    void loadBenchmark(const std::string &workload_abbrev,
                       const workload::WorkloadParams &params,
                       unsigned app_id = 0);

    /** Loads a caller-built workload (examples / tests). */
    void loadWorkload(gpu::GpuWorkload workload, unsigned app_id = 0);

    /**
     * Creates a further address space (tenant) with its own page table
     * over the shared backing store and frame allocator, registers its
     * walk root with the IOMMU, and returns its ContextId. Same VA
     * layout as the default space — tenants genuinely collide on
     * virtual addresses, which is what the ASID isolation must absorb.
     * Incompatible with virtually-indexed L1 caches (those translate
     * below the cache, where the owning context is unknown).
     */
    tlb::ContextId createContext();

    /** The address space of @p ctx (0 = the default space). */
    vm::AddressSpace &addressSpaceOf(tlb::ContextId ctx);

    /**
     * Generates @p workload_abbrev in tenant @p ctx's address space,
     * binds @p app_id's translations to that context, and loads it —
     * immediately, or at @p arrival_tick when nonzero (tenant-churn
     * arrivals).
     */
    void loadBenchmarkInContext(const std::string &workload_abbrev,
                                const workload::WorkloadParams &params,
                                unsigned app_id, tlb::ContextId ctx,
                                sim::Tick arrival_tick = 0);

    /**
     * Runs to completion (or @p max_events as a runaway guard).
     * @return the collected statistics.
     */
    RunStats run(std::uint64_t max_events = 2'000'000'000ull);

    /** Dumps every component's stats (gem5-style listing). */
    void dumpStats(std::ostream &os) const;

    const SystemConfig &config() const { return cfg_; }

    /** The event queue every component runs on. */
    sim::EventQueue &eventQueue() { return eq_; }
    vm::AddressSpace &addressSpace() { return *addressSpace_; }
    gpu::Gpu &gpu() { return *gpu_; }
    iommu::Iommu &iommu() { return *iommu_; }
    tlb::TlbHierarchy &tlbs() { return *tlbs_; }
    mem::DramController &dram() { return *dram_; }
    mem::BackingStore &backingStore() { return store_; }

    /** The walk-lifecycle tracer, or nullptr when tracing is off. */
    trace::Tracer *tracer() { return tracer_.get(); }
    const trace::Tracer *tracer() const { return tracer_.get(); }

    /** The conservation auditor, or nullptr when auditing is off. */
    sim::Auditor *auditor() { return auditor_.get(); }
    const sim::Auditor *auditor() const { return auditor_.get(); }

    /** The demand-paging GMMU, or nullptr when fully resident. */
    vm::Gmmu *gmmu() { return gmmu_.get(); }
    const vm::Gmmu *gmmu() const { return gmmu_.get(); }

  private:
    /** Intrusive wake-up driving the in-run (periodic) audit checks. */
    struct PeriodicAuditEvent final : sim::Event
    {
        void process() override;
        System *sys = nullptr;
    };

    void registerSystemInvariants();
    void registerChannelInvariants();
    std::vector<sim::ChannelBase *> channels();
    RunStats collectStats();

    SystemConfig cfg_;
    bool channelTranslation_ = false;  ///< TLB→IOMMU edge via channels

    sim::EventQueue eq_;

    std::unique_ptr<trace::Tracer> tracer_;
    std::unique_ptr<sim::Auditor> auditor_;
    PeriodicAuditEvent auditEvent_;
    mem::BackingStore store_;
    vm::FrameAllocator frames_;
    /** Demand-paging fault handler; null for fully resident runs.
     *  Faults are raised and serviced on the walk path. */
    std::unique_ptr<vm::Gmmu> gmmu_;
    std::unique_ptr<vm::AddressSpace> addressSpace_;
    /** Tenant address spaces beyond the default (ContextId i+1). */
    std::vector<std::unique_ptr<vm::AddressSpace>> tenantSpaces_;

    // Latency-boundary channels (the system's channel wiring table)
    // and the adapters presenting them as plain device interfaces.
    std::unique_ptr<sim::Channel<tlb::TranslationRequest>> chTranslate_;
    std::unique_ptr<tlb::TranslationReplyChannel> chTransReply_;
    std::unique_ptr<sim::Channel<mem::MemoryRequest>> chGpuMem_;
    std::unique_ptr<mem::MemoryReplyChannel> chMemReplyGpu_;
    std::unique_ptr<sim::Channel<mem::MemoryRequest>> chWalkMem_;
    std::unique_ptr<mem::MemoryReplyChannel> chMemReplyIommu_;
    std::unique_ptr<tlb::ChannelTranslationPort> transPort_;
    std::unique_ptr<mem::ChannelMemoryPort> gpuMemPort_;
    std::unique_ptr<mem::ChannelMemoryPort> walkMemPort_;

    std::unique_ptr<mem::DramController> dram_;
    std::unique_ptr<mem::Cache> l2d_;
    std::vector<std::unique_ptr<tlb::TranslatingPort>> bridges_;
    std::vector<std::unique_ptr<mem::Cache>> l1ds_;
    std::unique_ptr<iommu::Iommu> iommu_;
    std::unique_ptr<tlb::TlbHierarchy> tlbs_;
    std::unique_ptr<gpu::Gpu> gpu_;
};

} // namespace gpuwalk::system

#endif // GPUWALK_SYSTEM_SYSTEM_HH

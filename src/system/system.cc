#include "system/system.hh"

#include <algorithm>
#include <cmath>

#include "trace/digest.hh"
#include "workload/registry.hh"

namespace gpuwalk::system {

System::System(const SystemConfig &cfg)
    // Frames are scattered over physical memory, as an OS hands them out.
    : cfg_(cfg), frames_(cfg.physMemBytes, /*scramble=*/true)
{
    addressSpace_ = std::make_unique<vm::AddressSpace>(store_, frames_);

    // Each component calls the next one directly and pays its own
    // latency: the IOMMU the GPU→IOMMU hop (Iommu::translate), DRAM
    // its access time (DramController schedules the completion).
    dram_ = std::make_unique<mem::DramController>(eq_, cfg_.dram, memory_);
    l2d_ = std::make_unique<mem::Cache>(eq_, cfg_.l2d, memory_, *dram_);

    // Page walks fetch PTEs through the CPU-complex walk path — the
    // IOMMU sits in the CPU complex, not behind the GPU's caches.
    auto scheduler = cfg_.schedulerFactory
                         ? cfg_.schedulerFactory()
                         : core::makeScheduler(cfg_.scheduler,
                                               cfg_.schedulerSeed,
                                               cfg_.simt, cfg_.qos);
    iommu_ = std::make_unique<iommu::Iommu>(
        eq_, cfg_.iommu, std::move(scheduler), translations_, memory_,
        *dram_, store_, addressSpace_->pageTable().root());

    if (cfg_.gmmu.enabled) {
        // Demand paging: faults are raised and serviced on the walk
        // path, and the default address space stops eagerly mapping
        // its regions.
        gmmu_ = std::make_unique<vm::Gmmu>(eq_, cfg_.gmmu, frames_,
                                           store_);
        addressSpace_->setDemandPaging(true);
        gmmu_->registerSpace(0, *addressSpace_);
        iommu_->attachGmmu(gmmu_.get());
    }

    // Test seam: an interposer may sit between the TLB hierarchy and
    // the IOMMU.
    tlb::TranslationService *translation = iommu_.get();
    if (cfg_.translationInterposer) {
        translation =
            cfg_.translationInterposer(eq_, translations_, *iommu_);
        GPUWALK_ASSERT(translation != nullptr,
                       "translation interposer returned nullptr");
    }
    tlbs_ = std::make_unique<tlb::TlbHierarchy>(eq_, cfg_.gpuTlb,
                                                translations_, *translation);

    if (cfg_.trace.enabled) {
        tracer_ = std::make_unique<trace::Tracer>(cfg_.trace);
        tlbs_->setTracer(tracer_.get());
        iommu_->setTracer(tracer_.get());
    }

    l1ds_.reserve(cfg_.gpu.numCus);
    std::vector<mem::MemoryDevice *> l1_ptrs;
    for (unsigned cu = 0; cu < cfg_.gpu.numCus; ++cu) {
        mem::CacheConfig l1 = cfg_.l1d;
        l1.name = "l1d" + std::to_string(cu);
        mem::MemoryDevice *below = l2d_.get();
        if (cfg_.gpu.virtualL1Cache) {
            // Virtual L1s translate on the miss path (Yoon et al.).
            bridges_.push_back(std::make_unique<tlb::TranslatingPort>(
                *tlbs_, memory_, *l2d_));
            below = bridges_.back().get();
        }
        l1ds_.push_back(
            std::make_unique<mem::Cache>(eq_, l1, memory_, *below));
        l1_ptrs.push_back(l1ds_.back().get());
    }

    gpu_ = std::make_unique<gpu::Gpu>(eq_, cfg_.gpu, *tlbs_, memory_,
                                      std::move(l1_ptrs));

    if (cfg_.audit.enabled) {
        auditor_ = std::make_unique<sim::Auditor>();
        tlbs_->registerInvariants(*auditor_);
        iommu_->registerInvariants(*auditor_);
        if (gmmu_)
            gmmu_->registerInvariants(*auditor_);
        if (iommu_->walkCache())
            iommu_->walkCache()->registerInvariants(*auditor_);
        l2d_->registerInvariants(*auditor_);
        for (auto &l1 : l1ds_)
            l1->registerInvariants(*auditor_);
        dram_->registerInvariants(*auditor_);
        gpu_->registerInvariants(*auditor_);
        translations_.registerInvariants(*auditor_);
        memory_.registerInvariants(*auditor_);
        registerSystemInvariants();
        auditEvent_.sys = this;
    }
}

void
System::registerSystemInvariants()
{
    // The forward and receive counters move in the same synchronous
    // call, so they must agree at any instant — unless something sits
    // between the two and injects or swallows requests.
    auditor_->registerInvariant(
        "system.translation_conservation",
        [this](sim::AuditContext &ctx) {
            ctx.require(tlbs_->iommuRequests() == iommu_->requests(),
                        "TLB hierarchy forwarded ",
                        tlbs_->iommuRequests(),
                        " requests but the IOMMU received ",
                        iommu_->requests());
        });
    // Every response answers a received request. Prefetch completions
    // must only fill TLBs — a synthetic response for a request no
    // coalescer made would push responses() past requests().
    auditor_->registerInvariant(
        "system.reply_conservation",
        [this](sim::AuditContext &ctx) {
            if (!ctx.require(iommu_->responses() <= iommu_->requests(),
                             "IOMMU answered ", iommu_->responses(),
                             " requests of only ", iommu_->requests(),
                             " received"))
                return;
            if (ctx.final()) {
                ctx.require(iommu_->responses() == iommu_->requests(),
                            iommu_->requests() - iommu_->responses(),
                            " requests never answered at drain");
            }
        });

    // Events-executed stays monotone.
    auditor_->registerInvariant(
        "system.events_monotone",
        [this, last = std::uint64_t{0}](sim::AuditContext &ctx) mutable {
            const std::uint64_t executed = eq_.executed();
            ctx.require(executed >= last,
                        "events executed went backwards: ", last, " -> ",
                        executed);
            last = executed;
        });
}

void
System::PeriodicAuditEvent::process()
{
    sys->auditor_->check(sim::AuditPhase::Periodic, sys->eq_.now());
    if (!sys->gpu_->done()) {
        sys->eq_.schedule(sys->eq_.now() + sys->cfg_.audit.interval,
                          *this);
    }
}

void
System::loadBenchmark(const std::string &workload_abbrev,
                      const workload::WorkloadParams &params,
                      unsigned app_id)
{
    loadBenchmarkInContext(workload_abbrev, params, app_id,
                           tlb::defaultContext);
}

void
System::loadWorkload(gpu::GpuWorkload workload, unsigned app_id)
{
    gpu_->loadWorkload(std::move(workload), app_id);
}

tlb::ContextId
System::createContext()
{
    GPUWALK_ASSERT(!cfg_.gpu.virtualL1Cache,
                   "multi-tenant runs need physical L1s: a virtual L1 "
                   "translates below the cache, where the owning "
                   "context is unknown");
    GPUWALK_ASSERT(tenantSpaces_.size() + 1 < tlb::maxContexts,
                   "at most ", tlb::maxContexts,
                   " contexts fit a 16-bit ASID: context ",
                   tenantSpaces_.size() + 1, " would alias context 0");
    tenantSpaces_.push_back(
        std::make_unique<vm::AddressSpace>(store_, frames_));
    const auto ctx = static_cast<tlb::ContextId>(tenantSpaces_.size());
    iommu_->registerContext(ctx,
                            tenantSpaces_.back()->pageTable().root());
    if (gmmu_) {
        tenantSpaces_.back()->setDemandPaging(true);
        gmmu_->registerSpace(ctx, *tenantSpaces_.back());
    }
    return ctx;
}

vm::AddressSpace &
System::addressSpaceOf(tlb::ContextId ctx)
{
    if (ctx == tlb::defaultContext)
        return *addressSpace_;
    return *tenantSpaces_.at(ctx - 1);
}

void
System::loadBenchmarkInContext(const std::string &workload_abbrev,
                               const workload::WorkloadParams &params,
                               unsigned app_id, tlb::ContextId ctx,
                               sim::Tick arrival_tick)
{
    auto gen = workload::makeWorkload(workload_abbrev);
    vm::AddressSpace &as = addressSpaceOf(ctx);
    GPUWALK_ASSERT(!(gmmu_ && params.useLargePages),
                   "demand paging excludes eager large pages (2 MB "
                   "coverage comes from GMMU promotion)");
    as.useLargePages(params.useLargePages);
    gpu_->setAppContext(app_id, ctx);
    if (arrival_tick == 0) {
        gpu_->loadWorkload(gen->generate(as, params), app_id);
    } else {
        gpu_->loadWorkloadAt(arrival_tick, gen->generate(as, params),
                             app_id);
    }
}

RunStats
System::run(std::uint64_t max_events)
{
    if (gmmu_) {
        // Resolve the oversubscription ratio against the loaded
        // workloads' total footprint: the cap is fixed for the run,
        // like a real device's memory size.
        mem::Addr bytes = addressSpace_->footprintBytes();
        for (const auto &space : tenantSpaces_)
            bytes += space->footprintBytes();
        const auto pages =
            std::uint64_t{(bytes + mem::pageSize - 1) / mem::pageSize};
        const auto cap = static_cast<std::uint64_t>(
            std::ceil(cfg_.gmmu.oversubscription
                      * static_cast<double>(pages)));
        gmmu_->setFrameCap(std::max<std::uint64_t>(1, cap));
    }
    gpu_->start();

    if (auditor_ && cfg_.audit.interval > 0)
        eq_.schedule(eq_.now() + cfg_.audit.interval, auditEvent_);

    std::uint64_t events = 0;
    while (!gpu_->done()) {
        if (!eq_.runOne())
            sim::panic("event queue drained before the GPU finished (",
                       "deadlock: some request never completed)");
        if (++events > max_events)
            sim::panic("simulation exceeded ", max_events,
                       " events without completing");
    }

    if (auditor_) {
        // Let the tail work that outlives the kernel (writebacks,
        // prefetch walks) finish, so the final checks see a drained
        // system rather than legitimately in-flight state.
        while (eq_.runOne()) {
            if (++events > max_events)
                sim::panic("simulation exceeded ", max_events,
                           " events while draining for the audit");
        }
        auditor_->check(sim::AuditPhase::Final, eq_.now());
    }

    return collectStats();
}

RunStats
System::collectStats()
{
    RunStats stats;
    stats.runtimeTicks = gpu_->finishTick();
    for (std::size_t app = 0; app < gpu_->numApps(); ++app)
        stats.appFinishTicks.push_back(
            gpu_->appFinishTick(static_cast<unsigned>(app)));
    stats.stallTicks = gpu_->totalStallTicks();
    stats.instructions = gpu_->totalInstructions();
    stats.eventsExecuted = eq_.executed();
    stats.translationRequests = tlbs_->iommuRequests();
    stats.walkRequests = iommu_->walkRequests();
    stats.walksCompleted = iommu_->walksCompleted();
    stats.avgWavefrontsPerEpoch = tlbs_->avgWavefrontsPerEpoch();
    stats.walks = iommu_->metrics().summarize();
    stats.latency = iommu_->latencySummary();
    if (tracer_) {
        stats.traced = true;
        stats.traceDigest = trace::digest(*tracer_);
        stats.traceEvents = tracer_->recorded();
        stats.traceDropped = tracer_->dropped();
    }
    if (auditor_) {
        stats.audited = true;
        stats.auditChecks = auditor_->checksRun();
        stats.auditViolations = auditor_->violationCount();
        stats.auditFindings = auditor_->violations();
    }

    // Per-tenant accounting, multi-tenant runs only: single-tenant
    // stats stay byte-identical to the pre-ASID simulator.
    if (!tenantSpaces_.empty()) {
        const std::size_t numCtx = tenantSpaces_.size() + 1;
        for (std::size_t c = 0; c < numCtx; ++c) {
            const auto ctx = static_cast<tlb::ContextId>(c);
            RunStats::TenantStats t;
            t.ctx = ctx;
            const auto &ic = iommu_->tenantCounters(ctx);
            t.walkRequests = ic.walkRequests;
            t.walksCompleted = ic.walksCompleted;
            t.dispatches = ic.dispatches;
            t.queueWaitTicks = ic.queueWaitTicks;
            t.serviceTicks = ic.serviceTicks;
            for (std::size_t app = 0; app < gpu_->numApps(); ++app) {
                const auto a = static_cast<unsigned>(app);
                if (gpu_->contextOf(a) == ctx)
                    t.finishTick =
                        std::max(t.finishTick, gpu_->appFinishTick(a));
            }
            stats.tenants.push_back(t);
        }
    }

    if (gmmu_)
        stats.gmmu = gmmu_->summarize();
    stats.prefetch = iommu_->prefetchSummary();
    return stats;
}

void
System::dumpStats(std::ostream &os) const
{
    gpu_->stats().dump(os);
    tlbs_->stats().dump(os);
    iommu_->stats().dump(os);
    l2d_->stats().dump(os);
    for (const auto &l1 : l1ds_)
        l1->stats().dump(os);
    dram_->stats().dump(os);
}

} // namespace gpuwalk::system

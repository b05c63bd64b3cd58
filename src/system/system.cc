#include "system/system.hh"

#include <algorithm>
#include <cmath>

#include "trace/digest.hh"
#include "workload/registry.hh"

namespace gpuwalk::system {

System::System(const SystemConfig &cfg)
    : cfg_(cfg), frames_(cfg.physMemBytes, cfg.scrambleFrames)
{
    addressSpace_ = std::make_unique<vm::AddressSpace>(store_, frames_);

    channelTranslation_ = !cfg_.translationInterposer;

    // The channel wiring table: every call crossing a latency boundary
    // becomes a typed channel carrying its fixed link latency. The
    // minimum latency is the floor every send on the edge must respect:
    //  - TLB hierarchy -> IOMMU: the off-chip hop (hoisted out of
    //    Iommu::translate onto the link).
    //  - IOMMU -> TLB replies: walk completions return same-tick.
    //  - requests into DRAM: handed over same-tick (the caller already
    //    paid its own cache latency).
    //  - DRAM replies: nothing completes faster than CAS + burst.
    const sim::Tick hop = cfg_.iommu.hopLatency;
    const sim::Tick dramFloor = cfg_.dram.cl() + cfg_.dram.burst();
    chTranslate_ = std::make_unique<sim::Channel<tlb::TranslationRequest>>(
        "tlb_to_iommu", hop);
    chTransReply_ = std::make_unique<tlb::TranslationReplyChannel>(
        "iommu_to_tlb", 0);
    chGpuMem_ = std::make_unique<sim::Channel<mem::MemoryRequest>>(
        "l2d_to_dram", 0);
    chMemReplyGpu_ = std::make_unique<mem::MemoryReplyChannel>(
        "dram_to_l2d", dramFloor);
    chWalkMem_ = std::make_unique<sim::Channel<mem::MemoryRequest>>(
        "walk_to_dram", 0);
    chMemReplyIommu_ = std::make_unique<mem::MemoryReplyChannel>(
        "dram_to_walk", dramFloor);
    for (sim::ChannelBase *ch : channels())
        ch->bind(eq_);

    transPort_ =
        std::make_unique<tlb::ChannelTranslationPort>(*chTranslate_);
    gpuMemPort_ = std::make_unique<mem::ChannelMemoryPort>(
        *chGpuMem_, *chMemReplyGpu_);
    walkMemPort_ = std::make_unique<mem::ChannelMemoryPort>(
        *chWalkMem_, *chMemReplyIommu_);

    dram_ = std::make_unique<mem::DramController>(eq_, cfg_.dram);
    chGpuMem_->onDeliver(
        [this](mem::MemoryRequest &&m) { dram_->access(std::move(m)); });
    chWalkMem_->onDeliver(
        [this](mem::MemoryRequest &&m) { dram_->access(std::move(m)); });
    chMemReplyGpu_->onDeliver([](mem::MemoryRequest &&m) { m.complete(); });
    chMemReplyIommu_->onDeliver(
        [](mem::MemoryRequest &&m) { m.complete(); });
    chTransReply_->onDeliver([](tlb::TranslationReply &&m) {
        m.req.complete(m.paPage, m.largePage);
    });

    l2d_ = std::make_unique<mem::Cache>(eq_, cfg_.l2d, *gpuMemPort_);

    // Page walks fetch PTEs through the CPU-complex walk path — the
    // IOMMU sits in the CPU complex, not behind the GPU's caches.
    auto scheduler = cfg_.schedulerFactory
                         ? cfg_.schedulerFactory()
                         : core::makeScheduler(cfg_.scheduler,
                                               cfg_.schedulerSeed,
                                               cfg_.simt, cfg_.qos);
    iommu_ = std::make_unique<iommu::Iommu>(
        eq_, cfg_.iommu, std::move(scheduler), *walkMemPort_, store_,
        addressSpace_->pageTable().root());

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

    tlb::TranslationService *translation = nullptr;
    if (channelTranslation_) {
        iommu_->setReplyChannel(chTransReply_.get());
        chTranslate_->onDeliver([this](tlb::TranslationRequest &&r) {
            iommu_->deliverTranslate(std::move(r));
        });
        translation = transPort_.get();
    } else {
        // Test-only direct wiring: the interposer sits between the TLB
        // hierarchy and the IOMMU, which pays the hop latency itself.
        translation = cfg_.translationInterposer(eq_, *iommu_);
        GPUWALK_ASSERT(translation != nullptr,
                       "translation interposer returned nullptr");
    }
    tlbs_ = std::make_unique<tlb::TlbHierarchy>(eq_, cfg_.gpuTlb,
                                                *translation);

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
                *tlbs_, *l2d_));
            below = bridges_.back().get();
        }
        l1ds_.push_back(std::make_unique<mem::Cache>(eq_, l1, *below));
        l1_ptrs.push_back(l1ds_.back().get());
    }

    gpu_ = std::make_unique<gpu::Gpu>(eq_, cfg_.gpu, *tlbs_,
                                      std::move(l1_ptrs));
    if (tracer_)
        gpu_->setTracer(tracer_.get());

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
        registerSystemInvariants();
        registerChannelInvariants();
        auditEvent_.sys = this;
    }
}

std::vector<sim::ChannelBase *>
System::channels()
{
    return {chTranslate_.get(),  chTransReply_.get(),
            chGpuMem_.get(),     chMemReplyGpu_.get(),
            chWalkMem_.get(),    chMemReplyIommu_.get()};
}

void
System::registerSystemInvariants()
{
    if (channelTranslation_) {
        // Cross-component identity through the channel: the hierarchy's
        // forward counter moves with the channel's send counter in the
        // same synchronous call, and the IOMMU's receive counter moves
        // with the delivery — so both pairs agree at any instant, and
        // the link itself must conserve (nothing injected, nothing
        // swallowed, nothing left in flight at drain).
        auditor_->registerInvariant(
            "system.translation_conservation",
            [this](sim::AuditContext &ctx) {
                ctx.require(tlbs_->iommuRequests() == chTranslate_->sent(),
                            "TLB hierarchy forwarded ",
                            tlbs_->iommuRequests(),
                            " requests but the channel accepted ",
                            chTranslate_->sent());
                ctx.require(iommu_->requests() == chTranslate_->delivered(),
                            "channel delivered ",
                            chTranslate_->delivered(),
                            " requests but the IOMMU received ",
                            iommu_->requests());
                if (ctx.final()) {
                    ctx.require(chTranslate_->sent()
                                    == chTranslate_->delivered(),
                                chTranslate_->sent()
                                    - chTranslate_->delivered(),
                                " translation requests still in flight"
                                " at drain");
                }
            });
        // Reply conservation: every reply answers a received request.
        // Prefetch completions must short-circuit to TLB fills only —
        // a synthetic reply for a request no coalescer made would push
        // sent() past requests() and trip this.
        auditor_->registerInvariant(
            "system.reply_conservation",
            [this](sim::AuditContext &ctx) {
                ctx.require(chTransReply_->sent() <= iommu_->requests(),
                            "IOMMU sent ", chTransReply_->sent(),
                            " replies for only ", iommu_->requests(),
                            " received requests");
                if (ctx.final()) {
                    ctx.require(chTransReply_->sent()
                                    == iommu_->requests(),
                                iommu_->requests()
                                    - chTransReply_->sent(),
                                " requests never answered at drain");
                }
            });
    } else {
        // Direct wiring (interposer): the forward and receive counters
        // move in the same synchronous call, so they must agree at any
        // instant — unless something sits between the two and injects
        // or swallows requests.
        auditor_->registerInvariant(
            "system.translation_conservation",
            [this](sim::AuditContext &ctx) {
                ctx.require(tlbs_->iommuRequests() == iommu_->requests(),
                            "TLB hierarchy forwarded ",
                            tlbs_->iommuRequests(),
                            " requests but the IOMMU received ",
                            iommu_->requests());
            });
    }

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
System::registerChannelInvariants()
{
    for (sim::ChannelBase *ch : channels()) {
        auditor_->registerInvariant(
            "channel." + ch->name() + ".conservation",
            [ch](sim::AuditContext &ctx) {
                const std::uint64_t delivered = ch->delivered();
                const std::uint64_t sent = ch->sent();
                ctx.require(delivered <= sent, "delivered ", delivered,
                            " messages but only ", sent, " were sent");
                if (!ctx.final())
                    return;
                ctx.require(sent == delivered, sent - delivered,
                            " messages lost in flight at drain");
            });
    }
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
    auto gen = workload::makeWorkload(workload_abbrev);
    GPUWALK_ASSERT(!(gmmu_ && params.useLargePages),
                   "demand paging excludes eager large pages (2 MB "
                   "coverage comes from GMMU promotion)");
    addressSpace_->useLargePages(params.useLargePages);
    loadWorkload(gen->generate(*addressSpace_, params), app_id);
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
    stats.spec = iommu_->specSummary();
    stats.leaderIssues = gpu_->totalLeaderIssues();
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

#include "iommu/iommu.hh"

#include <algorithm>

#include "sim/audit.hh"
#include "vm/gmmu.hh"
#include "vm/page_table.hh"

namespace gpuwalk::iommu {

Iommu::Iommu(sim::EventQueue &eq, const IommuConfig &cfg,
             std::unique_ptr<core::WalkScheduler> scheduler,
             tlb::TranslationTable &translations, mem::MemoryTable &requests,
             mem::MemoryDevice &memory, mem::BackingStore &store,
             mem::Addr page_table_root)
    : eq_(eq), cfg_(cfg), scheduler_(std::move(scheduler)),
      translations_(translations), store_(store),
      frontPort_(eq, cfg.frontPortPeriod),
      l1Tlb_(tlb::TlbConfig{"iommu_l1tlb", cfg.l1TlbEntries,
                            cfg.l1TlbEntries}),
      l2Tlb_(tlb::TlbConfig{"iommu_l2tlb", cfg.l2TlbEntries,
                            cfg.l2TlbAssociativity}),
      pwc_(cfg.pwc, page_table_root), pageTableRoot_(page_table_root),
      buffer_(cfg.bufferEntries), statGroup_("iommu")
{
    GPUWALK_ASSERT(scheduler_ != nullptr, "IOMMU needs a scheduler");
    GPUWALK_ASSERT(cfg_.numWalkers > 0, "IOMMU needs walkers");

    if (cfg_.prefetch.kind == PrefetchKind::Spp)
        prefetcher_.emplace(cfg_.prefetch);

    mem::MemoryDevice *walk_path = &memory;
    if (cfg_.useWalkCache) {
        walkCache_ = std::make_unique<mem::Cache>(eq_, cfg_.walkCache,
                                                  requests, memory);
        walk_path = walkCache_.get();
    }

    walkers_.reserve(cfg_.numWalkers);
    for (unsigned i = 0; i < cfg_.numWalkers; ++i) {
        walkers_.push_back(std::make_unique<PageTableWalker>(
            eq_, translations_, requests, *walk_path, store_, pwc_, *this,
            i));
    }

    statGroup_.add(requests_);
    statGroup_.add(tlbHits_);
    statGroup_.add(walkRequests_);
    statGroup_.add(walksCompleted_);
    statGroup_.add(overflowed_);
    statGroup_.add(prefetches_);
    statGroup_.add(prefetchCompleted_);
    statGroup_.add(prefetchUseful_);
    statGroup_.add(prefetchEvictedUnused_);
    statGroup_.add(bufferOccupancy_);
    statGroup_.add(walkLatency_);
    statGroup_.add(walkAccessesAvg_);
    latencyGroup_.add(queueWaitHist_);
    latencyGroup_.add(walkerServiceHist_);
    latencyGroup_.add(queueWaitAvg_);
    latencyGroup_.add(walkerServiceAvg_);
    for (auto &h : levelMemHist_)
        latencyGroup_.add(h);
    for (auto &a : levelMemAvg_)
        latencyGroup_.add(a);
    statGroup_.addChild(latencyGroup_);
    statGroup_.addChild(l1Tlb_.stats());
    statGroup_.addChild(l2Tlb_.stats());
    statGroup_.addChild(pwc_.stats());
    if (walkCache_)
        statGroup_.addChild(walkCache_->stats());
}

void
Iommu::setTracer(trace::Tracer *tracer)
{
    tracer_ = tracer;
    for (auto &w : walkers_)
        w->setTracer(tracer);
}

void
Iommu::attachGmmu(vm::Gmmu *gmmu)
{
    gmmu_ = gmmu;
    for (auto &w : walkers_)
        w->allowFaults(gmmu != nullptr);
    if (!gmmu)
        return;
    gmmu->setServiceCallback(
        [this](vm::Gmmu::ContextId ctx, mem::Addr page) {
            onFaultServiced(static_cast<ContextId>(ctx), page);
        });
    // Evictions shoot down the IOMMU's own TLB entries so no stale
    // translation for a non-resident page can hit here. (GPU-side TLB
    // entries are not shot down — a documented model approximation;
    // their stale physical addresses point at frames the GMMU scrubs
    // only after saving content.)
    gmmu->setEvictCallback(
        [this](vm::Gmmu::ContextId ctx, mem::Addr page) {
            l1Tlb_.invalidate(page, static_cast<ContextId>(ctx));
            l2Tlb_.invalidate(page, static_cast<ContextId>(ctx));
        });
}

LatencyBreakdownSummary
Iommu::latencySummary() const
{
    const auto dist = [](const sim::Histogram &h, const sim::Average &a) {
        LatencyBreakdownSummary::Dist d;
        d.bucketCounts.resize(h.buckets());
        for (std::size_t i = 0; i < h.buckets(); ++i)
            d.bucketCounts[i] = h.bucketCount(i);
        d.samples = h.total();
        d.avg = a.mean();
        return d;
    };

    LatencyBreakdownSummary s;
    s.queueWait = dist(queueWaitHist_, queueWaitAvg_);
    s.walkerService = dist(walkerServiceHist_, walkerServiceAvg_);
    for (unsigned l = 0; l < vm::numPtLevels; ++l)
        s.levelMem[l] = dist(levelMemHist_[l], levelMemAvg_[l]);
    return s;
}

void
Iommu::registerInvariants(sim::Auditor &auditor)
{
    auditor.registerInvariant(
        "iommu.walk_conservation", [this](sim::AuditContext &ctx) {
            // Every started walk (demand or prefetch) completes
            // exactly once. A far fault does not break this: the
            // faulted attempt parks and the walk completes after the
            // fault is serviced and it re-walks.
            const std::uint64_t started =
                walkRequests_.value() + prefetches_.value();
            const std::uint64_t done = walksCompleted_.value();
            const bool ok = ctx.final() ? done == started : done <= started;
            ctx.require(ok, started, " walks started vs ", done,
                        " completed");
        });

    auditor.registerInvariant(
        "iommu.request_conservation", [this](sim::AuditContext &ctx) {
            // Every received request is eventually classified as an
            // IOMMU TLB hit or a walk; mid-run some are still in the
            // hop/front-port pipeline.
            const std::uint64_t classified =
                tlbHits_.value() + walkRequests_.value();
            const std::uint64_t received = requests_.value();
            const bool ok = ctx.final() ? classified == received
                                        : classified <= received;
            ctx.require(ok, received, " requests received vs ",
                        classified, " classified (hits + walks)");
        });

    auditor.registerInvariant(
        "iommu.buffer_drained", [this](sim::AuditContext &ctx) {
            if (!ctx.final()) {
                // The buffer holds work only while every walker is
                // busy (the class invariant immediate dispatch relies
                // on).
                if (!buffer_.empty() || !overflow_.empty()) {
                    ctx.require(idleWalker() == nullptr,
                                buffer_.size() + overflow_.size(),
                                " pending walks while a walker idles");
                }
                return;
            }
            ctx.require(buffer_.empty(), buffer_.size(),
                        " walks stuck in the buffer at drain");
            ctx.require(overflow_.empty(), overflow_.size(),
                        " walks stuck in the overflow FIFO at drain");
            ctx.require(faulted_.empty(), faultedParked_,
                        " walks parked on unserviced faults at drain");
        });

    auditor.registerInvariant(
        "iommu.fault_parking", [this](sim::AuditContext &ctx) {
            // The parked-walk counter mirrors the faulted lists, and
            // no list lingers empty (service removes the whole entry).
            std::uint64_t parked = 0;
            for (const auto &[key, entry] : faulted_) {
                parked += entry.walks.size();
                ctx.require(!entry.walks.empty(),
                            "empty fault parking list for key ", key);
            }
            ctx.require(parked == faultedParked_, parked,
                        " walks on fault lists vs counter ",
                        faultedParked_);
        });

    auditor.registerInvariant(
        "iommu.walkers_idle", [this](sim::AuditContext &ctx) {
            if (!ctx.final())
                return;
            for (const auto &w : walkers_) {
                ctx.require(!w->busy(), "walker ", w->id(),
                            " still busy at drain");
            }
        });

    auditor.registerInvariant(
        "iommu.tenant_accounting", [this](sim::AuditContext &ctx) {
            // The buffer's per-context occupancy lists must sum to its
            // size, and the per-tenant demand counters must sum to the
            // global ones.
            std::size_t listed = 0;
            for (std::size_t c = 0; c < buffer_.contextLimit(); ++c)
                listed += buffer_.contextCount(
                    static_cast<ContextId>(c));
            ctx.require(listed == buffer_.size(), listed,
                        " walks on per-tenant lists vs buffer size ",
                        buffer_.size());

            std::uint64_t enq = 0, done = 0;
            for (const auto &t : tenants_) {
                enq += t.walkRequests;
                done += t.walksCompleted;
            }
            ctx.require(enq == walkRequests_.value(), enq,
                        " tenant walk requests vs global ",
                        walkRequests_.value());
            // Global walksCompleted_ also counts prefetches; tenant
            // counters are demand-only.
            ctx.require(done + prefetches_.value()
                            == walksCompleted_.value()
                        || !ctx.final(),
                        done, " tenant completions + ",
                        prefetches_.value(), " prefetches vs global ",
                        walksCompleted_.value());
        });

    auditor.registerInvariant(
        "iommu.inflight_tracking", [this](sim::AuditContext &ctx) {
            // The per-(ctx,page) in-flight counts the prefetch dedup
            // filter consults must mirror the real walk population:
            // buffered + overflowed + walking + fault-parked.
            std::uint64_t tracked = 0;
            for (const auto &[key, count] : inflight_) {
                if (!ctx.require(count > 0, "zero in-flight count "
                                 "lingers for key ", key))
                    return;
                tracked += count;
            }
            ctx.require(tracked == inflightWalks(), tracked,
                        " tracked in-flight walks vs ",
                        inflightWalks(), " actual");
            if (ctx.final()) {
                ctx.require(inflight_.empty(), inflight_.size(),
                            " in-flight keys survive the drain");
            }
        });

    auditor.registerInvariant(
        "iommu.buffer_counters", [this](sim::AuditContext &ctx) {
            const bool tracks = scheduler_->tracksAging();
            for (const auto &e : buffer_.entries()) {
                if (!ctx.require(e.seq < nextSeq_, "buffered walk seq ",
                                 e.seq, " >= next seq ", nextSeq_))
                    return;
                // bypassed increments at most once per dispatch, and
                // every dispatch consumed one sequence number.
                if (!ctx.require(e.bypassed < nextSeq_, "walk seq ",
                                 e.seq, " bypassed ", e.bypassed,
                                 " times with only ", nextSeq_,
                                 " arrivals"))
                    return;
                if (!tracks
                    && !ctx.require(e.bypassed == 0, "scheduler '",
                                    scheduler_->name(),
                                    "' skips aging bookkeeping but walk"
                                    " seq ",
                                    e.seq, " shows bypassed=",
                                    e.bypassed))
                    return;
            }
        });
}

void
Iommu::translate(tlb::RequestHandle req)
{
    ++requests_;
    eq_.scheduleIn(cfg_.hopLatency, [this, req] {
        frontPort_.submit([this, req] { lookupTlbs(req); });
    });
}

void
Iommu::deliverTranslate(tlb::RequestHandle req)
{
    // The translate channel already carried the hop latency.
    ++requests_;
    frontPort_.submit([this, req] { lookupTlbs(req); });
}

void
Iommu::respond(tlb::RequestHandle req, mem::Addr pa_page, bool large_page,
               sim::Tick delay)
{
    if (replyChannel_) {
        replyChannel_->sendAt(eq_.now() + delay,
                              tlb::TranslationReply{req, large_page,
                                                    pa_page});
        return;
    }
    if (delay == 0) {
        translations_.complete(req, pa_page, large_page);
        return;
    }
    eq_.scheduleIn(delay, [this, req, pa_page, large_page] {
        translations_.complete(req, pa_page, large_page);
    });
}

void
Iommu::lookupTlbs(tlb::RequestHandle req)
{
    const tlb::TranslationRequest &r = translations_.at(req);
    // IOMMU TLB lookups (paper step 5). ASID-tagged: an entry never
    // hits across address spaces.
    auto hit = l1Tlb_.lookupEntry(r.vaPage, r.ctx);
    if (!hit)
        hit = l2Tlb_.lookupEntry(r.vaPage, r.ctx);
    if (hit) {
        ++tlbHits_;
        const auto h = *hit;
        if (prefetcher_) {
            // First demand touch of a prefetched translation: the
            // speculation paid off.
            const std::uint64_t key = mem::pageCtxKey(r.ctx, r.vaPage);
            if (const auto pit = prefetchedUntouched_.find(key);
                pit != prefetchedUntouched_.end()) {
                prefetchedUntouched_.erase(pit);
                ++prefetchUseful_;
                if (tracer_) {
                    trace::Event ev;
                    ev.tick = eq_.now();
                    ev.kind = trace::EventKind::PrefetchUseful;
                    ev.ctx = r.ctx;
                    ev.wavefront = r.wavefront;
                    ev.instruction = r.instruction;
                    ev.vaPage = r.vaPage;
                    tracer_->record(ev);
                }
            }
            // A hit is still a demand touch: without this the stream
            // starves as soon as the prefetcher starts covering it.
            const mem::Addr va = r.vaPage;
            const ContextId ctx = r.ctx;
            const std::uint32_t wavefront = r.wavefront;
            respond(req, h.paPage, h.largePage, cfg_.tlbLatency);
            maybePrefetch(va, ctx, wavefront);
            return;
        }
        respond(req, h.paPage, h.largePage, cfg_.tlbLatency);
        return;
    }
    eq_.scheduleIn(cfg_.tlbLatency, [this, req] { enqueueWalk(req); });
}

void
Iommu::enqueueWalk(tlb::RequestHandle req)
{
    ++walkRequests_;
    bufferOccupancy_.sample(static_cast<double>(buffer_.size()));

    const tlb::TranslationRequest &r = translations_.at(req);
    core::PendingWalk walk;
    walk.request = req;
    walk.cu = r.cu;
    walk.instruction = r.instruction;
    walk.ctx = r.ctx;
    walk.arrival = eq_.now();
    walk.seq = nextSeq_++;
    metrics_.onArrival(walk.instruction);
    ++tenantSlot(walk.ctx).walkRequests;
    noteInflight(walk.ctx, r.vaPage);
    if (prefetcher_) {
        // A demand *walk* for a prefetched page means the prefetched
        // TLB entry was evicted before its first use: pure pollution.
        const std::uint64_t key = mem::pageCtxKey(walk.ctx, r.vaPage);
        if (const auto pit = prefetchedUntouched_.find(key);
            pit != prefetchedUntouched_.end()) {
            prefetchedUntouched_.erase(pit);
            ++prefetchEvictedUnused_;
        }
    }
    // Pin the page for the walk's whole lifetime (buffer, walker,
    // fault parking): the GMMU must never evict a page with an
    // in-flight walk.
    if (gmmu_)
        gmmu_->pin(walk.ctx, r.vaPage);

    if (tracer_) {
        trace::Event ev;
        ev.tick = eq_.now();
        ev.kind = trace::EventKind::Enqueued;
        ev.ctx = walk.ctx;
        ev.wavefront = r.wavefront;
        ev.instruction = walk.instruction;
        ev.vaPage = r.vaPage;
        ev.arg0 = buffer_.size();
        tracer_->record(ev);
    }

    // An idle walker implies the buffer and overflow
    // FIFO are empty (dispatch drains the buffer whenever a walker
    // frees up), so the new request starts immediately and the
    // scheduler plays no role.
    if (PageTableWalker *w = idleWalker()) {
        GPUWALK_ASSERT(buffer_.empty() && overflow_.empty(),
                       "idle walker with pending requests");
        dispatchTo(*w, std::move(walk), core::PickReason::Immediate);
        return;
    }

    if (buffer_.full()) {
        ++overflowed_;
        overflow_.push_back(std::move(walk));
        return;
    }
    admitToBuffer(std::move(walk));
}

void
Iommu::admitToBuffer(core::PendingWalk walk)
{
    // Arrival-time scoring (paper actions 1-a and 1-b): probe the PWCs
    // for this request's own cost, then fold it into the running score
    // of every buffered request of the same instruction.
    if (scheduler_->needsScores()) {
        const tlb::TranslationRequest &r = translations_.at(walk.request);
        const unsigned estimate = pwc_.probeEstimate(r.vaPage, walk.ctx);
        walk.estimatedAccesses = estimate;

        const std::uint64_t new_score =
            buffer_.instructionScore(walk.instruction) + estimate;
        buffer_.rescoreInstruction(walk.instruction, new_score);
        walk.score = new_score;

        if (tracer_) {
            trace::Event ev;
            ev.tick = eq_.now();
            ev.kind = trace::EventKind::Scored;
            ev.ctx = walk.ctx;
            ev.wavefront = r.wavefront;
            ev.instruction = walk.instruction;
            ev.vaPage = r.vaPage;
            ev.arg0 = estimate;
            ev.arg1 = new_score;
            tracer_->record(ev);
        }
    }
    buffer_.insert(std::move(walk));
}

PageTableWalker *
Iommu::idleWalker()
{
    for (auto &w : walkers_) {
        if (!w->busy())
            return w.get();
    }
    return nullptr;
}

void
Iommu::dispatchIfPossible()
{
    while (!buffer_.empty()) {
        PageTableWalker *w = idleWalker();
        if (!w)
            break;
        const std::size_t idx = scheduler_->selectNext(buffer_);
        core::PendingWalk walk = buffer_.extract(idx);
        scheduler_->onDispatch(buffer_, walk);
        dispatchTo(*w, std::move(walk), scheduler_->lastPickReason());

        // A buffer slot freed: admit the oldest overflowed request.
        if (!overflow_.empty() && !buffer_.full()) {
            admitToBuffer(std::move(overflow_.front()));
            overflow_.pop_front();
        }
    }
}

void
Iommu::dispatchTo(PageTableWalker &walker, core::PendingWalk walk,
                  core::PickReason reason)
{
    metrics_.onDispatch(walk.instruction);

    const sim::Tick wait = eq_.now() - walk.arrival;
    queueWaitHist_.sample(wait);
    queueWaitAvg_.sample(static_cast<double>(wait));
    {
        TenantCounters &t = tenantSlot(walk.ctx);
        t.queueWaitTicks += wait;
        if (reason != core::PickReason::Immediate)
            ++t.dispatches;
    }
    if (tracer_) {
        trace::Event ev;
        ev.tick = eq_.now();
        ev.kind = trace::EventKind::Scheduled;
        const tlb::TranslationRequest &r = translations_.at(walk.request);
        ev.ctx = walk.ctx;
        ev.walker = walker.id();
        ev.wavefront = r.wavefront;
        ev.instruction = walk.instruction;
        ev.vaPage = r.vaPage;
        ev.arg0 = static_cast<std::uint64_t>(reason);
        ev.arg1 = wait;
        tracer_->record(ev);
    }
    walker.start(walk);
}

void
Iommu::walkDone(WalkResult &result)
{
    if (result.faulted) {
        handleFaultedWalk(result);
        return;
    }

    const core::PendingWalk &walk = result.walk;
    const tlb::TranslationRequest &r = translations_.at(walk.request);
    const mem::Addr completedVa = r.vaPage;
    const ContextId completedCtx = walk.ctx;
    const std::uint32_t wavefront = r.wavefront;
    const bool isPrefetch = walk.isPrefetch;

    ++walksCompleted_;
    releaseInflight(completedCtx, completedVa);
    if (gmmu_) {
        gmmu_->unpin(completedCtx, completedVa);
        gmmu_->touch(completedCtx, completedVa);
    }
    if (!isPrefetch) {
        walkLatency_.sample(
            static_cast<double>(result.finished - walk.arrival));
        walkAccessesAvg_.sample(
            static_cast<double>(result.memAccesses));
        metrics_.onComplete(walk.instruction, walk.arrival,
                            result.finished, result.memAccesses);

        const sim::Tick service = result.finished - result.started;
        TenantCounters &t = tenantSlot(completedCtx);
        ++t.walksCompleted;
        t.serviceTicks += service;
        walkerServiceHist_.sample(service);
        walkerServiceAvg_.sample(static_cast<double>(service));
        for (unsigned l = 0; l < vm::numPtLevels; ++l) {
            if (result.levelTicks[l] > 0) {
                levelMemHist_[l].sample(result.levelTicks[l]);
                levelMemAvg_[l].sample(
                    static_cast<double>(result.levelTicks[l]));
            }
        }
    }

    // Fill the IOMMU's TLBs; the GPU-side fills happen in the request's
    // completion path inside the TLB hierarchy.
    l1Tlb_.insert(completedVa, result.paPage, result.largePage,
                  completedCtx);
    l2Tlb_.insert(completedVa, result.paPage, result.largePage,
                  completedCtx);

    if (isPrefetch) {
        // No coalescer asked for this translation, so there is nothing
        // to respond to: a synthetic TranslationReply would break the
        // reply channel's request/reply conservation. The walk's whole
        // value is the TLB fills above.
        ++prefetchCompleted_;
        prefetchedUntouched_.try_emplace(
            mem::pageCtxKey(completedCtx, completedVa), true);
        translations_.release(walk.request);
    } else {
        respond(walk.request, result.paPage, result.largePage, 0);
    }

    // The finishing walker is idle now: service the backlog.
    dispatchIfPossible();

    if (prefetcher_ && !isPrefetch)
        maybePrefetch(completedVa, completedCtx, wavefront);
}

void
Iommu::handleFaultedWalk(const WalkResult &result)
{
    GPUWALK_ASSERT(gmmu_, "faulted walk without a GMMU attached");
    // Prefetch walks only start on pages that are resident and pinned
    // at issue time, so they can never observe a non-present entry.
    GPUWALK_ASSERT(!result.walk.isPrefetch, "prefetch walk faulted");

    const tlb::TranslationRequest &r = translations_.at(result.walk.request);
    const ContextId ctx = result.walk.ctx;
    const mem::Addr page = r.vaPage;
    const std::uint64_t key = mem::pageCtxKey(ctx, page);

    const auto [it, fresh] = faulted_.try_emplace(key);
    if (fresh) {
        it->second.raised = eq_.now();
        if (tracer_) {
            trace::Event ev;
            ev.tick = eq_.now();
            ev.kind = trace::EventKind::FaultRaised;
            ev.level = static_cast<std::uint8_t>(result.faultLevel);
            ev.ctx = ctx;
            ev.walker = result.walkerId;
            ev.wavefront = r.wavefront;
            ev.instruction = result.walk.instruction;
            ev.vaPage = page;
            ev.arg0 = 1; // walks parked behind the fault so far
            tracer_->record(ev);
        }
        gmmu_->raiseFault(ctx, page);
    } else {
        gmmu_->noteWaiter();
    }
    it->second.walks.push_back(result.walk);
    ++faultedParked_;

    // The faulting walker is idle now: service the backlog.
    dispatchIfPossible();
}

void
Iommu::onFaultServiced(ContextId ctx, mem::Addr va_page)
{
    const std::uint64_t key = mem::pageCtxKey(ctx, va_page);
    const auto it = faulted_.find(key);
    GPUWALK_ASSERT(it != faulted_.end(),
                   "fault serviced with no parked walks for va ",
                   va_page);
    FaultedEntry entry = std::move(it->second);
    faulted_.erase(it);
    GPUWALK_ASSERT(faultedParked_ >= entry.walks.size(),
                   "parked-walk counter underflow");
    faultedParked_ -= entry.walks.size();

    if (tracer_) {
        trace::Event ev;
        ev.tick = eq_.now();
        ev.kind = trace::EventKind::FaultServiced;
        ev.ctx = ctx;
        ev.walker = trace::noWalker;
        const core::PendingWalk &first = entry.walks.front();
        ev.wavefront = translations_.at(first.request).wavefront;
        ev.instruction = first.instruction;
        ev.vaPage = va_page;
        ev.arg0 = entry.walks.size();
        ev.arg1 = eq_.now() - entry.raised;
        tracer_->record(ev);
    }

    for (auto &walk : entry.walks)
        reenterWalk(std::move(walk));
}

void
Iommu::reenterWalk(core::PendingWalk walk)
{
    // A re-entered walk is a new scheduling arrival: the buffer's
    // monotone-seq insert and the aging bookkeeping both demand a
    // fresh sequence number, and queue-wait restarts so the fault
    // service time is accounted by the GMMU's latency histogram, not
    // double-counted as buffer wait. It is NOT a new walk request:
    // walkRequests_, tenant arrival counters, metrics_.onArrival and
    // the Enqueued trace event all fired at the original arrival.
    walk.seq = nextSeq_++;
    walk.arrival = eq_.now();

    if (PageTableWalker *w = idleWalker()) {
        GPUWALK_ASSERT(buffer_.empty() && overflow_.empty(),
                       "idle walker with pending requests");
        dispatchTo(*w, std::move(walk), core::PickReason::Immediate);
        return;
    }
    if (buffer_.full()) {
        ++overflowed_;
        overflow_.push_back(std::move(walk));
        return;
    }
    admitToBuffer(std::move(walk));
}

void
Iommu::maybePrefetch(mem::Addr touched_va_page, ContextId ctx,
                     std::uint32_t wavefront)
{
    if (!prefetcher_)
        return;

    // Train on every demand touch, whether or not any prediction can
    // issue right now — the pattern tables must keep learning even
    // while the walkers are saturated.
    candidates_.clear();
    prefetcher_->onDemandTouch(ctx, wavefront, touched_va_page,
                               candidates_);

    for (const PrefetchCandidate &cand : candidates_) {
        // Strictly idle-bandwidth: only when nothing demands service.
        // Checked per candidate — issuing one occupies a walker.
        if (!buffer_.empty() || !overflow_.empty())
            return;
        PageTableWalker *w = idleWalker();
        if (!w)
            return;

        const mem::Addr page = cand.vaPage;
        if (l1Tlb_.probe(page, ctx) || l2Tlb_.probe(page, ctx))
            continue;
        // In-flight dedup: a walk (demand or speculative) for this
        // very translation is already buffered, walking, or parked —
        // a second concurrent walk would be pure waste.
        if (inflight_.contains(mem::pageCtxKey(ctx, page)))
            continue;
        // Functional presence check against the tenant's own page
        // table: never walk into an unmapped page. Under demand
        // paging the page must additionally be resident — a prefetch
        // must never raise a far fault.
        if (gmmu_ && !gmmu_->isResident(ctx, page))
            continue;
        if (!vm::translateFrom(store_, pwc_.rootOf(ctx), page))
            continue;

        ++prefetches_;
        const core::PendingWalk walk = prefetchWalk(page, ctx, wavefront);
        // The pin taken here (released at completion) keeps the
        // resident check valid for the walk's whole duration.
        if (gmmu_)
            gmmu_->pin(ctx, page);
        if (tracer_) {
            trace::Event ev;
            ev.tick = eq_.now();
            ev.kind = trace::EventKind::PrefetchIssued;
            ev.ctx = ctx;
            ev.walker = w->id();
            ev.wavefront = wavefront;
            ev.vaPage = page;
            ev.arg0 = static_cast<std::uint64_t>(
                cand.confidence * 1000.0);
            ev.arg1 = touched_va_page;
            tracer_->record(ev);
        }
        // Bypass metrics/scheduler: the walker is idle by
        // construction.
        w->start(walk);
    }
}

core::PendingWalk
Iommu::prefetchWalk(mem::Addr page, ContextId ctx, std::uint32_t wavefront)
{
    noteInflight(ctx, page);
    core::PendingWalk walk;
    walk.request = translations_.acquire();
    tlb::TranslationRequest &r = translations_.at(walk.request);
    r.vaPage = page;
    r.instruction = 0; // reserved prefetch tag
    r.wavefront = wavefront;
    r.ctx = ctx;
    walk.ctx = ctx;
    walk.arrival = eq_.now();
    walk.seq = nextSeq_++;
    walk.isPrefetch = true;
    return walk;
}

void
Iommu::noteInflight(ContextId ctx, mem::Addr va_page)
{
    ++inflight_[mem::pageCtxKey(ctx, va_page)];
}

void
Iommu::releaseInflight(ContextId ctx, mem::Addr va_page)
{
    const std::uint64_t key = mem::pageCtxKey(ctx, va_page);
    const auto it = inflight_.find(key);
    GPUWALK_ASSERT(it != inflight_.end() && it->second > 0,
                   "in-flight release with no tracked walk for va ",
                   va_page);
    if (--it->second == 0)
        inflight_.erase(it);
}

PrefetchSummary
Iommu::prefetchSummary() const
{
    PrefetchSummary s;
    s.enabled = prefetcher_.has_value();
    s.policy = toString(cfg_.prefetch.kind);
    s.issued = prefetches_.value();
    s.completed = prefetchCompleted_.value();
    s.useful = prefetchUseful_.value();
    s.evictedUnused = prefetchEvictedUnused_.value();
    s.unusedAtEnd = prefetchedUntouched_.size();
    if (s.completed > 0) {
        s.accuracy = static_cast<double>(s.useful)
                     / static_cast<double>(s.completed);
        s.pollution = static_cast<double>(s.evictedUnused)
                      / static_cast<double>(s.completed);
    }
    const std::uint64_t demand = s.useful + walkRequests_.value();
    if (demand > 0)
        s.coverage = static_cast<double>(s.useful)
                     / static_cast<double>(demand);
    return s;
}

Iommu::TenantCounters &
Iommu::tenantSlot(ContextId ctx)
{
    if (tenants_.size() <= ctx)
        tenants_.resize(ctx + 1);
    return tenants_[ctx];
}

} // namespace gpuwalk::iommu

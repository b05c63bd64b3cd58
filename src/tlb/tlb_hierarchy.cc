#include "tlb/tlb_hierarchy.hh"

#include "sim/audit.hh"

namespace gpuwalk::tlb {

TlbHierarchy::TlbHierarchy(sim::EventQueue &eq,
                           const TlbHierarchyConfig &cfg,
                           TranslationService &iommu)
    : eq_(eq), cfg_(cfg), iommu_(iommu),
      l2_(TlbConfig{"l2tlb", cfg.l2Entries, cfg.l2Associativity}),
      l2Port_(eq, cfg.l2PortPeriod), statGroup_("gpu_tlb")
{
    l1s_.reserve(cfg_.numCus);
    for (unsigned cu = 0; cu < cfg_.numCus; ++cu) {
        l1s_.push_back(std::make_unique<SetAssocTlb>(TlbConfig{
            "l1tlb" + std::to_string(cu), cfg.l1Entries,
            cfg.l1Entries}));
        l1Ports_.push_back(std::make_unique<sim::RateLimiter>(
            eq, cfg.l1PortPeriod));
        statGroup_.addChild(l1s_.back()->stats());
    }
    statGroup_.addChild(l2_.stats());
    statGroup_.add(requests_);
    statGroup_.add(l1Merged_);
    statGroup_.add(l2Merged_);
    statGroup_.add(iommuRequests_);
    statGroup_.add(epochWavefronts_);
}

void
TlbHierarchy::translate(TranslationRequest req)
{
    GPUWALK_ASSERT(req.cu < cfg_.numCus, "bad CU id ", req.cu);
    ++requests_;

    if (auditTracking_) {
        if (wavefrontIo_.size() <= req.wavefront)
            wavefrontIo_.resize(req.wavefront + 1);
        ++wavefrontIo_[req.wavefront].in;
    }

    if (tracer_) {
        trace::Event ev;
        ev.tick = eq_.now();
        ev.kind = trace::EventKind::Coalesced;
        ev.wavefront = req.wavefront;
        ev.instruction = req.instruction;
        ev.vaPage = req.vaPage;
        ev.ctx = req.ctx;
        tracer_->record(ev);
    }

    // Claim the CU's single L1 TLB lookup port, then pay the lookup
    // latency. Bursts from one SIMD instruction serialize here.
    l1Ports_[req.cu]->submit([this, r = std::move(req)]() mutable {
        eq_.scheduleIn(cfg_.l1Latency,
                       [this, r = std::move(r)]() mutable {
                           lookupL1(std::move(r));
                       });
    });
}

void
TlbHierarchy::lookupL1(TranslationRequest r)
{
    SetAssocTlb &l1 = *l1s_[r.cu];
    if (auto hit = l1.lookupEntry(r.vaPage, r.ctx)) {
        deliver(r, hit->paPage, hit->largePage);
        return;
    }

    // Merge with an in-flight miss from this CU to the same page of
    // the same address space.
    const std::uint64_t key = l1Key(r.ctx, r.cu, r.vaPage);
    auto it = l1Inflight_.find(key);
    if (it != l1Inflight_.end()) {
        ++l1Merged_;
        it->second->waiters.push_back(std::move(r));
        return;
    }
    MergeEntry *entry = mergePool_.acquire();
    entry->waiters.push_back(std::move(r));
    l1Inflight_.emplace(key, entry);
    const TranslationRequest &leader = entry->waiters.front();

    TranslationRequest down;
    down.vaPage = leader.vaPage;
    down.instruction = leader.instruction;
    down.wavefront = leader.wavefront;
    down.cu = leader.cu;
    down.app = leader.app;
    down.ctx = leader.ctx;
    down.leader = leader.leader;
    down.onComplete = [this, cu = leader.cu, va = leader.vaPage,
                       ctx = leader.ctx](mem::Addr pa_page, bool large) {
        auto node = l1Inflight_.find(l1Key(ctx, cu, va));
        GPUWALK_ASSERT(node != l1Inflight_.end(), "orphan L1 fill");
        MergeEntry *filled = node->second;
        l1Inflight_.erase(node);
        l1s_[cu]->insert(va, pa_page, large, ctx);
        for (auto &w : filled->waiters)
            deliver(w, pa_page, large);
        filled->waiters.clear();
        mergePool_.release(filled);
    };

    // The shared L2 TLB is also single-ported: the eight CUs' miss
    // streams multiplex here, which is where walk requests from
    // different instructions start interleaving (paper §III-B).
    l2Port_.submit([this, d = std::move(down)]() mutable {
        eq_.scheduleIn(cfg_.l2Latency,
                       [this, d = std::move(d)]() mutable {
                           accessL2(std::move(d));
                       });
    });
}

void
TlbHierarchy::accessL2(TranslationRequest req)
{
    noteL2Access(req.wavefront);

    if (auto hit = l2_.lookupEntry(req.vaPage, req.ctx)) {
        req.complete(hit->paPage, hit->largePage);
        return;
    }

    const std::uint64_t key = l2Key(req.ctx, req.vaPage);
    auto it = l2Inflight_.find(key);
    if (it != l2Inflight_.end()) {
        ++l2Merged_;
        it->second->waiters.push_back(std::move(req));
        return;
    }

    MergeEntry *entry = mergePool_.acquire();
    entry->waiters.push_back(std::move(req));
    l2Inflight_.emplace(key, entry);
    const TranslationRequest &leader = entry->waiters.front();

    ++iommuRequests_;
    TranslationRequest down;
    down.vaPage = leader.vaPage;
    down.instruction = leader.instruction;
    down.wavefront = leader.wavefront;
    down.cu = leader.cu;
    down.app = leader.app;
    down.ctx = leader.ctx;
    down.leader = leader.leader;
    down.onComplete = [this, key, va_page = leader.vaPage,
                       ctx = leader.ctx](mem::Addr pa_page, bool large) {
        auto node = l2Inflight_.find(key);
        GPUWALK_ASSERT(node != l2Inflight_.end(), "orphan L2 fill");
        MergeEntry *filled = node->second;
        l2Inflight_.erase(node);
        l2_.insert(va_page, pa_page, large, ctx);
        for (auto &w : filled->waiters)
            w.complete(pa_page, large);
        filled->waiters.clear();
        mergePool_.release(filled);
    };
    iommu_.translate(std::move(down));
}

void
TlbHierarchy::deliver(TranslationRequest &req, mem::Addr pa_page,
                      bool large)
{
    if (auditTracking_)
        ++wavefrontIo_[req.wavefront].out;
    req.complete(pa_page, large);
}

void
TlbHierarchy::noteL2Access(std::uint32_t wavefront)
{
    if (epochStamp_.size() <= wavefront)
        epochStamp_.resize(wavefront + 1, 0);
    if (epochStamp_[wavefront] != epoch_) {
        epochStamp_[wavefront] = epoch_;
        ++epochDistinct_;
    }
    if (++epochAccesses_ >= cfg_.epochLength) {
        epochWavefronts_.sample(static_cast<double>(epochDistinct_));
        ++epoch_;
        epochDistinct_ = 0;
        epochAccesses_ = 0;
    }
}

void
TlbHierarchy::registerInvariants(sim::Auditor &auditor)
{
    auditTracking_ = true;

    auditor.registerInvariant(
        "tlb.merge_pool", [this](sim::AuditContext &ctx) {
            const std::size_t tables =
                l1Inflight_.size() + l2Inflight_.size();
            ctx.require(mergePool_.inUse() == tables,
                        "merge-pool live count ", mergePool_.inUse(),
                        " != in-flight table entries ", tables);
            if (!ctx.final())
                return;
            ctx.require(l1Inflight_.empty(), l1Inflight_.size(),
                        " L1 miss merges never filled");
            ctx.require(l2Inflight_.empty(), l2Inflight_.size(),
                        " L2 miss merges never filled");
            ctx.require(mergePool_.inUse() == 0, "merge pool leaks ",
                        mergePool_.inUse(), " entries at drain");
        });

    auditor.registerInvariant(
        "tlb.wavefront_conservation", [this](sim::AuditContext &ctx) {
            for (std::size_t wf = 0; wf < wavefrontIo_.size(); ++wf) {
                const WavefrontIo &io = wavefrontIo_[wf];
                const bool ok =
                    ctx.final() ? io.out == io.in : io.out <= io.in;
                // One message is enough; thousands of wavefronts leak
                // together when a response goes missing.
                if (!ctx.require(ok, "wavefront ", wf, ": ", io.in,
                                 " requests coalesced in vs ", io.out,
                                 " responses out"))
                    return;
            }
        });
}

void
TlbHierarchy::invalidateAll()
{
    for (auto &l1 : l1s_)
        l1->invalidateAll();
    l2_.invalidateAll();
}

} // namespace gpuwalk::tlb

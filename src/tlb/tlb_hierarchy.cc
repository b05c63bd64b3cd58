#include "tlb/tlb_hierarchy.hh"

#include "sim/audit.hh"

namespace gpuwalk::tlb {

TlbHierarchy::TlbHierarchy(sim::EventQueue &eq,
                           const TlbHierarchyConfig &cfg,
                           TranslationTable &table,
                           TranslationService &iommu)
    : eq_(eq), cfg_(cfg), table_(table),
      sinkId_(table.attach(*this)), iommu_(iommu),
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
TlbHierarchy::translate(RequestHandle h)
{
    const TranslationRequest &req = table_.at(h);
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
    l1Ports_[req.cu]->submit([this, h] {
        eq_.scheduleIn(cfg_.l1Latency, [this, h] { lookupL1(h); });
    });
}

void
TlbHierarchy::lookupL1(RequestHandle h)
{
    const TranslationRequest &r = table_.at(h);
    SetAssocTlb &l1 = *l1s_[r.cu];
    if (auto hit = l1.lookupEntry(r.vaPage, r.ctx)) {
        deliver(h, hit->paPage, hit->largePage);
        return;
    }

    // Merge with an in-flight miss from this CU to the same page of
    // the same address space.
    const std::uint64_t key = l1Key(r.ctx, r.cu, r.vaPage);
    auto it = l1Inflight_.find(key);
    if (it != l1Inflight_.end()) {
        ++l1Merged_;
        merges_.at(it->second).waiters.push_back(h);
        return;
    }
    const RequestHandle down =
        openMerge(l1Inflight_, key, h, TranslationRouteKind::L1Merge);

    // The shared L2 TLB is also single-ported: the eight CUs' miss
    // streams multiplex here, which is where walk requests from
    // different instructions start interleaving (paper §III-B).
    l2Port_.submit([this, down] {
        eq_.scheduleIn(cfg_.l2Latency, [this, down] { accessL2(down); });
    });
}

void
TlbHierarchy::accessL2(RequestHandle h)
{
    const TranslationRequest &req = table_.at(h);
    noteL2Access(req.wavefront);

    if (auto hit = l2_.lookupEntry(req.vaPage, req.ctx)) {
        table_.complete(h, hit->paPage, hit->largePage);
        return;
    }

    const std::uint64_t key = l2Key(req.ctx, req.vaPage);
    auto it = l2Inflight_.find(key);
    if (it != l2Inflight_.end()) {
        ++l2Merged_;
        merges_.at(it->second).waiters.push_back(h);
        return;
    }

    ++iommuRequests_;
    iommu_.translate(
        openMerge(l2Inflight_, key, h, TranslationRouteKind::L2Merge));
}

RequestHandle
TlbHierarchy::openMerge(sim::FlatMap<std::uint64_t, sim::Handle> &inflight,
                        std::uint64_t key, RequestHandle first,
                        TranslationRouteKind kind)
{
    const sim::Handle entry = merges_.acquire();
    MergeEntry &m = merges_.at(entry);
    m.key = key;
    m.waiters.push_back(first);
    inflight.emplace(key, entry);

    const RequestHandle down = table_.acquire({kind, sinkId_, entry});
    table_.at(down) = table_.at(first);
    return down;
}

void
TlbHierarchy::translated(const TranslationRoute &route, mem::Addr pa_page,
                         bool large_page)
{
    switch (route.kind) {
      case TranslationRouteKind::L1Merge:
        fillL1(route.tag, pa_page, large_page);
        return;
      case TranslationRouteKind::L2Merge:
        fillL2(route.tag, pa_page, large_page);
        return;
      default:
        sim::panic("TLB hierarchy got a translation it never routed");
    }
}

void
TlbHierarchy::fillL1(sim::Handle entry, mem::Addr pa_page, bool large)
{
    MergeEntry &filled = merges_.at(entry);
    l1Inflight_.erase(filled.key);
    // The entry's first waiter opened it and is still unanswered.
    const TranslationRequest &first = table_.at(filled.waiters.front());
    l1s_[first.cu]->insert(first.vaPage, pa_page, large, first.ctx);
    for (RequestHandle w : filled.waiters)
        deliver(w, pa_page, large);
    filled.waiters.clear();
    merges_.release(entry);
}

void
TlbHierarchy::fillL2(sim::Handle entry, mem::Addr pa_page, bool large)
{
    MergeEntry &filled = merges_.at(entry);
    l2Inflight_.erase(filled.key);
    const TranslationRequest &first = table_.at(filled.waiters.front());
    l2_.insert(first.vaPage, pa_page, large, first.ctx);
    for (RequestHandle w : filled.waiters)
        table_.complete(w, pa_page, large);
    filled.waiters.clear();
    merges_.release(entry);
}

void
TlbHierarchy::deliver(RequestHandle req, mem::Addr pa_page, bool large)
{
    if (auditTracking_)
        ++wavefrontIo_[table_.at(req).wavefront].out;
    table_.complete(req, pa_page, large);
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
            ctx.require(merges_.live() == tables,
                        "merge-pool live count ", merges_.live(),
                        " != in-flight table entries ", tables);
            if (!ctx.final())
                return;
            ctx.require(l1Inflight_.empty(), l1Inflight_.size(),
                        " L1 miss merges never filled");
            ctx.require(l2Inflight_.empty(), l2Inflight_.size(),
                        " L2 miss merges never filled");
            ctx.require(merges_.live() == 0, "merge pool leaks ",
                        merges_.live(), " entries at drain");
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

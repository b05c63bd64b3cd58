#include "vm/gmmu.hh"

#include <algorithm>


namespace gpuwalk::vm {

namespace {

/** 64-bit words per 4 KB page (save/restore granularity). */
constexpr std::size_t wordsPerPage = mem::pageSize / 8;

/** 4 KB pages per 2 MB contiguity block. */
constexpr std::uint64_t pagesPer2M = largePageSize / mem::pageSize;

} // namespace

const char *
toString(EvictPolicy policy)
{
    switch (policy) {
    case EvictPolicy::Lru: return "lru";
    case EvictPolicy::Random: return "random";
    }
    return "?";
}

const std::vector<std::uint64_t> &
faultLatencyBucketBounds()
{
    // Power-of-two buckets from 256K ticks: a single-fault service is
    // faultLatency + migrationLatency (~2.4M at defaults); queueing
    // behind batches pushes the tail out by multiples of that.
    static const std::vector<std::uint64_t> bounds{
        1ull << 18, 1ull << 19, 1ull << 20, 1ull << 21,
        1ull << 22, 1ull << 23, 1ull << 24, 1ull << 25,
    };
    return bounds;
}

Gmmu::Gmmu(sim::EventQueue &eq, const GmmuConfig &cfg,
           FrameAllocator &frames, mem::BackingStore &store)
    : eq_(eq), cfg_(cfg), frames_(frames), store_(store),
      rng_(cfg.evictSeed),
      latencyHist_("gmmu_fault_latency",
                   "far fault raise-to-service latency",
                   faultLatencyBucketBounds()),
      latencyAvg_("gmmu_fault_latency_avg",
                  "mean far fault latency (ticks)")
{
    GPUWALK_ASSERT(cfg_.batchSize > 0, "gmmu batch size must be > 0");
    GPUWALK_ASSERT(cfg_.oversubscription > 0.0,
                   "oversubscription ratio must be positive");
}

void
Gmmu::registerSpace(ContextId ctx, AddressSpace &space)
{
    if (spaces_.size() <= ctx)
        spaces_.resize(ctx + 1, nullptr);
    spaces_[ctx] = &space;
}

void
Gmmu::setFrameCap(std::uint64_t cap)
{
    GPUWALK_ASSERT(cap > 0, "frame cap must be positive");
    frameCap_ = cap;
}

void
Gmmu::setServiceCallback(ServiceCallback cb)
{
    serviceCallback_ = std::move(cb);
}

void
Gmmu::setEvictCallback(EvictCallback cb)
{
    evictCallback_ = std::move(cb);
}

PageTable &
Gmmu::pageTableOf(ContextId ctx)
{
    GPUWALK_ASSERT(ctx < spaces_.size() && spaces_[ctx],
                   "no address space registered for ctx ", ctx);
    return spaces_[ctx]->pageTable();
}

void
Gmmu::raiseFault(ContextId ctx, mem::Addr va_page)
{
    const std::uint64_t key = keyOf(ctx, va_page);
    GPUWALK_ASSERT(residentMap_.count(key) == 0,
                   "fault raised for resident page ", va_page);
    for (const auto &f : pending_)
        GPUWALK_ASSERT(f.key != key, "duplicate fault raise for page ",
                       va_page, " (walks must coalesce)");

    PendingFault fault;
    fault.key = key;
    fault.raised = eq_.now();
    pending_.push_back(fault);
    ++faultsRaised_;
    maybeStartBatch();
}

void
Gmmu::pin(ContextId ctx, mem::Addr va_page)
{
    ++pins_[keyOf(ctx, va_page)];
}

void
Gmmu::unpin(ContextId ctx, mem::Addr va_page)
{
    const auto it = pins_.find(keyOf(ctx, va_page));
    GPUWALK_ASSERT(it != pins_.end() && it->second > 0,
                   "unpin of unpinned page ", va_page);
    if (--it->second == 0)
        pins_.erase(it);
}

void
Gmmu::touch(ContextId ctx, mem::Addr va_page)
{
    const auto it = residentMap_.find(keyOf(ctx, va_page));
    if (it == residentMap_.end())
        return;
    lru_.splice(lru_.end(), lru_, it->second.lruIt);
}

bool
Gmmu::isResident(ContextId ctx, mem::Addr va_page) const
{
    return residentMap_.count(keyOf(ctx, va_page)) != 0;
}

void
Gmmu::maybeStartBatch()
{
    if (busy_ || pending_.empty())
        return;
    busy_ = true;
    ++batches_;
    // The host interrupt + runtime cost is paid up front, once per
    // batch; the batch membership is decided when the host actually
    // looks (beginBatch), so faults raised during the interrupt
    // latency still catch this round trip.
    eq_.scheduleIn(cfg_.faultLatency, [this] { beginBatch(); });
}

void
Gmmu::beginBatch()
{
    GPUWALK_ASSERT(busy_ && !pending_.empty(),
                   "batch began with no pending faults");
    // pending_ is in raise order: the batch takes the oldest faults.
    batch_.clear();
    batchPos_ = 0;
    for (auto &fault : pending_) {
        if (batch_.size() == cfg_.batchSize)
            break;
        fault.inService = true;
        batch_.push_back(fault.key);
    }
    serviceNext();
}

void
Gmmu::serviceNext()
{
    if (batchPos_ >= batch_.size()) {
        busy_ = false;
        batch_.clear();
        batchPos_ = 0;
        maybeStartBatch();
        return;
    }
    eq_.scheduleIn(cfg_.migrationLatency, [this] { completeFront(); });
}

void
Gmmu::completeFront()
{
    const std::uint64_t key = batch_[batchPos_];
    if (!ensureCapacity()) {
        // Every resident page is pinned by an in-flight walk: those
        // walks complete independently of the fault path, so retry
        // after their pins have had a chance to drain.
        ++serviceRetries_;
        eq_.scheduleIn(cfg_.migrationLatency,
                       [this] { completeFront(); });
        return;
    }

    placePage(key);

    const auto it = std::find_if(
        pending_.begin(), pending_.end(),
        [key](const PendingFault &f) { return f.key == key; });
    GPUWALK_ASSERT(it != pending_.end(), "serviced fault not pending");
    const sim::Tick raised = it->raised;
    pending_.erase(it);
    ++batchPos_;

    if (testFaults_.dropFirstService && !droppedOne_) {
        // The completion notification is lost: the page is mapped but
        // the fault is forgotten — neither counted as serviced nor
        // reported to the IOMMU, whose parked walks never release.
        droppedOne_ = true;
    } else {
        ++faultsServiced_;
        const sim::Tick latency = eq_.now() - raised;
        latencyHist_.sample(latency);
        latencyAvg_.sample(static_cast<double>(latency));
        if (serviceCallback_)
            serviceCallback_(ctxOf(key), pageOf(key));
    }
    serviceNext();
}

bool
Gmmu::ensureCapacity()
{
    while (residentMap_.size() >= frameCap_) {
        const auto victim = pickVictim();
        if (!victim)
            return false;
        evict(*victim);
    }
    return true;
}

std::optional<std::uint64_t>
Gmmu::pickVictim()
{
    if (testFaults_.evictPinned) {
        for (const std::uint64_t key : lru_) {
            if (pinned(key))
                return key;
        }
    }
    if (cfg_.evict == EvictPolicy::Random) {
        if (denseKeys_.empty())
            return std::nullopt;
        const std::size_t n = denseKeys_.size();
        const std::size_t start =
            static_cast<std::size_t>(rng_.below(n));
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t key = denseKeys_[(start + i) % n];
            if (!pinned(key))
                return key;
        }
        return std::nullopt;
    }
    for (const std::uint64_t key : lru_) {
        if (!pinned(key))
            return key;
    }
    return std::nullopt;
}

void
Gmmu::evict(std::uint64_t key)
{
    const auto it = residentMap_.find(key);
    GPUWALK_ASSERT(it != residentMap_.end(),
                   "eviction of non-resident page");
    const ResidentInfo info = it->second;
    const ContextId ctx = ctxOf(key);
    const mem::Addr page = pageOf(key);

    if (pinned(key))
        ++pinnedEvictions_; // only reachable via TestFaults

    // A promoted 2 MB range must fall back to its 4 KB leaves before
    // one of them can go non-present.
    const std::uint64_t rk = regionKeyOf(ctx, page);
    const auto rit = regions_.find(rk);
    if (rit != regions_.end() && rit->second.promoted) {
        pageTableOf(ctx).demoteFromLarge(page,
                                         rit->second.savedPdEntry);
        rit->second.promoted = false;
        ++demotions_;
    }

    // Save the device frame's functional content to the host side and
    // scrub the frame (it will back a different page next). Frames the
    // workload never wrote are implicitly zero and need no copy.
    if (store_.contains(info.pa)) {
        auto &words = hostCopy_[key];
        words.resize(wordsPerPage);
        for (std::size_t i = 0; i < wordsPerPage; ++i) {
            words[i] = store_.read64(info.pa + 8 * i);
            store_.write64(info.pa + 8 * i, 0);
        }
    }

    pageTableOf(ctx).unmap(page);
    if (evictCallback_)
        evictCallback_(ctx, page);

    lru_.erase(info.lruIt);
    const std::size_t last = denseKeys_.size() - 1;
    if (info.denseIdx != last) {
        denseKeys_[info.denseIdx] = denseKeys_[last];
        residentMap_[denseKeys_[last]].denseIdx = info.denseIdx;
    }
    denseKeys_.pop_back();
    residentMap_.erase(it);
    ++pagesEvicted_;

    if (testFaults_.leakFrameOnEvict)
        return; // frame bookkeeping forgotten

    --residentPages_;
    if (info.fromBlock) {
        GPUWALK_ASSERT(rit != regions_.end() && rit->second.resident > 0,
                       "block eviction without region accounting");
        --rit->second.resident;
    } else {
        --resident4k_;
        freeFrames_.push_back(info.pa);
    }
}

void
Gmmu::placePage(std::uint64_t key)
{
    const ContextId ctx = ctxOf(key);
    const mem::Addr page = pageOf(key);

    RegionInfo &region = regions_[regionKeyOf(ctx, page)];
    if (!region.tried) {
        region.tried = true;
        region.base2M = frames_.tryAllocateLargeFrame().value_or(0);
    }
    const bool fromBlock = region.base2M != 0;
    mem::Addr pa = 0;
    if (fromBlock) {
        // Natural offset inside the block: the VA->PA function of the
        // range is stable across evict/re-fault round trips.
        pa = region.base2M + (page & largePageMask);
    } else {
        if (!freeFrames_.empty()) {
            pa = freeFrames_.back();
            freeFrames_.pop_back();
        } else {
            pa = frames_.allocateFrame();
            ++frames4kTaken_;
        }
        ++resident4k_;
    }

    // Restore content saved at eviction time.
    const auto hit = hostCopy_.find(key);
    if (hit != hostCopy_.end()) {
        for (std::size_t i = 0; i < wordsPerPage; ++i)
            store_.write64(pa + 8 * i, hit->second[i]);
        hostCopy_.erase(hit);
    }

    pageTableOf(ctx).map(page, pa);

    lru_.push_back(key);
    ResidentInfo info;
    info.pa = pa;
    info.lruIt = std::prev(lru_.end());
    info.denseIdx = denseKeys_.size();
    info.fromBlock = fromBlock;
    denseKeys_.push_back(key);
    residentMap_.emplace(key, info);
    ++residentPages_;
    residentPeak_ = std::max(residentPeak_, residentPages_);
    ++pagesMigrated_;

    if (fromBlock) {
        ++region.resident;
        if (region.resident == pagesPer2M && !region.promoted) {
            region.savedPdEntry =
                pageTableOf(ctx).promoteToLarge(page, region.base2M);
            region.promoted = true;
            ++promotions_;
        }
    }
}

void
Gmmu::registerInvariants(sim::Auditor &auditor)
{
    auditor.registerInvariant(
        "gmmu.fault_conservation", [this](sim::AuditContext &ctx) {
            const std::uint64_t pending = pending_.size();
            ctx.require(faultsRaised_ == faultsServiced_ + pending,
                        faultsRaised_, " faults raised but ",
                        faultsServiced_, " serviced + ", pending,
                        " pending");
            if (ctx.final()) {
                ctx.require(pending == 0, pending,
                            " faults still pending at teardown");
            }
        });

    auditor.registerInvariant(
        "gmmu.residency_cap", [this](sim::AuditContext &ctx) {
            ctx.require(residentMap_.size() <= frameCap_,
                        residentMap_.size(),
                        " resident pages exceed the frame cap of ",
                        frameCap_);
        });

    auditor.registerInvariant(
        "gmmu.no_pinned_eviction", [this](sim::AuditContext &ctx) {
            ctx.require(pinnedEvictions_ == 0, pinnedEvictions_,
                        " pages evicted while an in-flight walk "
                        "pinned them");
            if (ctx.final()) {
                ctx.require(pins_.empty(), pins_.size(),
                            " pages still pinned after the drain");
            }
        });

    auditor.registerInvariant(
        "gmmu.frame_accounting", [this](sim::AuditContext &ctx) {
            ctx.require(residentPages_ == residentMap_.size(),
                        "resident counter ", residentPages_,
                        " disagrees with the resident set of ",
                        residentMap_.size());
            ctx.require(lru_.size() == residentMap_.size()
                            && denseKeys_.size() == residentMap_.size(),
                        "LRU list or victim index out of step with "
                        "the resident set");
            std::uint64_t fromBlocks = 0;
            for (const auto &[rk, region] : regions_)
                fromBlocks += region.resident;
            ctx.require(fromBlocks + resident4k_ == residentPages_,
                        "block-resident ", fromBlocks, " + 4K-resident ",
                        resident4k_, " != resident ", residentPages_);
            ctx.require(frames4kTaken_
                            == resident4k_ + freeFrames_.size(),
                        frames4kTaken_, " 4K frames taken but ",
                        resident4k_, " resident + ",
                        freeFrames_.size(), " free");
        });
}

GmmuSummary
Gmmu::summarize() const
{
    GmmuSummary s;
    s.enabled = true;
    s.frameCap = frameCap_;
    s.residentPeak = residentPeak_;
    s.residentFinal = residentMap_.size();
    s.faultsRaised = faultsRaised_;
    s.faultsServiced = faultsServiced_;
    s.faultsCoalesced = faultsCoalesced_;
    s.batches = batches_;
    s.pagesMigrated = pagesMigrated_;
    s.pagesEvicted = pagesEvicted_;
    s.promotions = promotions_;
    s.demotions = demotions_;
    s.serviceRetries = serviceRetries_;
    s.pinnedEvictions = pinnedEvictions_;
    s.latencyBucketCounts.resize(latencyHist_.buckets());
    for (std::size_t i = 0; i < latencyHist_.buckets(); ++i)
        s.latencyBucketCounts[i] = latencyHist_.bucketCount(i);
    s.latencySamples = latencyHist_.total();
    s.latencyAvg = latencyAvg_.mean();
    return s;
}

} // namespace gpuwalk::vm

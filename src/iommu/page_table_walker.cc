#include "iommu/page_table_walker.hh"

#include "vm/page_table.hh"

namespace gpuwalk::iommu {

void
PageTableWalker::start(const core::PendingWalk &walk)
{
    GPUWALK_ASSERT(!busy_, "walker already busy");
    busy_ = true;
    current_ = walk;
    const tlb::TranslationRequest &req = translations_.at(walk.request);
    va_ = req.vaPage;
    wavefront_ = req.wavefront;
    accesses_ = 0;
    started_ = eq_.now();
    levelTicks_.fill(0);

    // Prefetch walks were never scored at arrival, so their lookups
    // must not consume pin counters a scoring probe left behind.
    const WalkStart ws = pwc_.lookup(va_, current_.ctx, !current_.isPrefetch);
    level_ = ws.level;
    table_ = ws.tableBase;
    step();
}

void
PageTableWalker::traceMem(trace::EventKind kind, std::uint64_t arg0)
{
    // Prefetch walks bypass the scheduler and are invisible to the
    // trace, keeping "every enqueued walk completes once" exact.
    if (!tracer_ || current_.isPrefetch)
        return;
    trace::Event ev;
    ev.tick = eq_.now();
    ev.kind = kind;
    ev.ctx = current_.ctx;
    ev.level = static_cast<std::uint8_t>(level_);
    ev.walker = id_;
    ev.wavefront = wavefront_;
    ev.instruction = current_.instruction;
    ev.vaPage = va_;
    ev.arg0 = arg0;
    tracer_->record(ev);
}

void
PageTableWalker::step()
{
    const auto level = vm::PtLevel{level_};
    slot_ = table_ + std::uint64_t(vm::PageTable::indexAt(va_, level)) * 8;
    traceMem(trace::EventKind::MemIssued, slot_);

    issued_ = eq_.now();
    const mem::RequestHandle h =
        requests_.acquire({mem::MemoryRouteKind::Walker, sinkId_, id_});
    mem::MemoryRequest &req = requests_.at(h);
    req.addr = slot_;
    req.size = 8;
    req.write = false;
    req.requester = mem::Requester::PageWalk;
    memory_.access(h);
}

void
PageTableWalker::memoryDone(const mem::MemoryRoute &)
{
    ++accesses_;
    const sim::Tick latency = eq_.now() - issued_;
    levelTicks_[level_ - 1] = latency;
    traceMem(trace::EventKind::MemCompleted, latency);

    const std::uint64_t entry = store_.read64(slot_);
    if (!(entry & vm::pte::present)) {
        // A non-present entry is a far fault under demand paging and
        // a modeling bug otherwise (eagerly mapped workloads are fully
        // resident).
        GPUWALK_ASSERT(faultsAllowed_,
                       "page walk hit a non-present entry at level ",
                       level_, " for va ", va_,
                       " (workloads are fully resident)");
        fault();
        return;
    }
    if (level_ == 2 && (entry & vm::pte::pageSize)) {
        // 2 MB leaf (PS bit): the walk terminates a level early. The
        // PWC is not filled — there is no next-level table; the
        // translation itself belongs in the TLBs.
        const mem::Addr base = entry & vm::pte::addrMask2M;
        finish(base | (va_ & vm::largePageMask), /*large_page=*/true);
        return;
    }

    const mem::Addr next = entry & vm::pte::addrMask;
    if (level_ > 1) {
        pwc_.fill(va_, vm::PtLevel{level_}, next, current_.ctx);
        --level_;
        table_ = next;
        step();
    } else {
        finish(next, /*large_page=*/false);
    }
}

void
PageTableWalker::finish(mem::Addr pa_page, bool large_page)
{
    ++walksDone_;
    if (tracer_ && !current_.isPrefetch) {
        trace::Event ev;
        ev.tick = eq_.now();
        ev.kind = trace::EventKind::WalkDone;
        ev.ctx = current_.ctx;
        ev.walker = id_;
        ev.wavefront = wavefront_;
        ev.instruction = current_.instruction;
        ev.vaPage = va_;
        ev.arg0 = accesses_;
        ev.arg1 = eq_.now() - started_;
        tracer_->record(ev);
    }

    WalkResult result;
    result.walk = current_;
    result.paPage = pa_page;
    result.largePage = large_page;
    result.memAccesses = accesses_;
    result.walkerId = id_;
    result.started = started_;
    result.finished = eq_.now();
    result.levelTicks = levelTicks_;

    // Idle before reporting: the owner may restart this walker from
    // inside walkDone().
    busy_ = false;
    owner_.walkDone(result);
}

void
PageTableWalker::fault()
{
    // No WalkDone trace and no walksDone_ increment: the walk is not
    // done — it parks in the IOMMU's faulted list and completes after
    // the fault is serviced. The IOMMU records FaultRaised instead.
    WalkResult result;
    result.walk = current_;
    result.faulted = true;
    result.faultLevel = level_;
    result.memAccesses = accesses_;
    result.walkerId = id_;
    result.started = started_;
    result.finished = eq_.now();
    result.levelTicks = levelTicks_;

    busy_ = false;
    owner_.walkDone(result);
}

} // namespace gpuwalk::iommu

#include "iommu/page_table_walker.hh"

#include "vm/page_table.hh"

namespace gpuwalk::iommu {

void
PageTableWalker::start(core::PendingWalk walk, DoneCallback on_done)
{
    GPUWALK_ASSERT(!busy_, "walker already busy");
    busy_ = true;
    current_ = std::move(walk);
    onDone_ = std::move(on_done);
    accesses_ = 0;
    started_ = eq_.now();
    levelTicks_.fill(0);

    // Prefetch walks were never scored at arrival, so their lookups
    // must not consume pin counters a scoring probe left behind.
    const WalkStart ws =
        pwc_.lookup(current_.request.vaPage, current_.request.ctx,
                    !current_.isPrefetch);
    level_ = ws.level;
    table_ = ws.tableBase;
    step();
}

void
PageTableWalker::step()
{
    const mem::Addr va = current_.request.vaPage;
    const auto level = vm::PtLevel{level_};
    const mem::Addr slot =
        table_ + std::uint64_t(vm::PageTable::indexAt(va, level)) * 8;

    // Prefetch walks bypass the scheduler and are invisible to the
    // trace, keeping "every enqueued walk completes once" exact.
    if (tracer_ && !current_.isPrefetch) {
        trace::Event ev;
        ev.tick = eq_.now();
        ev.kind = trace::EventKind::MemIssued;
        ev.ctx = current_.request.ctx;
        ev.level = static_cast<std::uint8_t>(level_);
        ev.walker = id_;
        ev.wavefront = current_.request.wavefront;
        ev.instruction = current_.request.instruction;
        ev.vaPage = va;
        ev.arg0 = slot;
        tracer_->record(ev);
    }

    const sim::Tick issued = eq_.now();
    const unsigned issued_level = level_;
    mem::MemoryRequest req;
    req.addr = slot;
    req.size = 8;
    req.write = false;
    req.requester = mem::Requester::PageWalk;
    req.onComplete = [this, slot, va, issued, issued_level] {
        ++accesses_;
        const sim::Tick latency = eq_.now() - issued;
        levelTicks_[issued_level - 1] = latency;
        if (tracer_ && !current_.isPrefetch) {
            trace::Event ev;
            ev.tick = eq_.now();
            ev.kind = trace::EventKind::MemCompleted;
            ev.ctx = current_.request.ctx;
            ev.level = static_cast<std::uint8_t>(issued_level);
            ev.walker = id_;
            ev.wavefront = current_.request.wavefront;
            ev.instruction = current_.request.instruction;
            ev.vaPage = va;
            ev.arg0 = latency;
            tracer_->record(ev);
        }
        const std::uint64_t entry = store_.read64(slot);
        if (!(entry & vm::pte::present)) {
            // A non-present entry is a far fault under demand paging
            // and a modeling bug otherwise (eagerly mapped workloads
            // are fully resident).
            GPUWALK_ASSERT(faultsAllowed_,
                           "page walk hit a non-present entry at level ",
                           level_, " for va ", va,
                           " (workloads are fully resident)");
            fault();
            return;
        }
        if (level_ == 2 && (entry & vm::pte::pageSize)) {
            // 2 MB leaf (PS bit): the walk terminates a level early.
            // The PWC is not filled — there is no next-level table;
            // the translation itself belongs in the TLBs.
            const mem::Addr base = entry & vm::pte::addrMask2M;
            finish(base | (va & vm::largePageMask),
                   /*large_page=*/true);
            return;
        }

        const mem::Addr next = entry & vm::pte::addrMask;
        if (level_ > 1) {
            pwc_.fill(va, vm::PtLevel{level_}, next,
                      current_.request.ctx);
            --level_;
            table_ = next;
            step();
        } else {
            finish(next, /*large_page=*/false);
        }
    };
    memory_.access(std::move(req));
}

void
PageTableWalker::finish(mem::Addr pa_page, bool large_page)
{
    ++walksDone_;
    if (tracer_ && !current_.isPrefetch) {
        trace::Event ev;
        ev.tick = eq_.now();
        ev.kind = trace::EventKind::WalkDone;
        ev.ctx = current_.request.ctx;
        ev.walker = id_;
        ev.wavefront = current_.request.wavefront;
        ev.instruction = current_.request.instruction;
        ev.vaPage = current_.request.vaPage;
        ev.arg0 = accesses_;
        ev.arg1 = eq_.now() - started_;
        tracer_->record(ev);
    }

    WalkResult result;
    result.walk = std::move(current_);
    result.paPage = pa_page;
    result.largePage = large_page;
    result.memAccesses = accesses_;
    result.walkerId = id_;
    result.started = started_;
    result.finished = eq_.now();
    result.levelTicks = levelTicks_;

    busy_ = false;
    // Move the callback out before invoking: the IOMMU may immediately
    // restart this walker from inside the callback.
    auto done = std::move(onDone_);
    done(std::move(result));
}

void
PageTableWalker::fault()
{
    // No WalkDone trace and no walksDone_ increment: the walk is not
    // done — it parks in the IOMMU's faulted list and completes after
    // the fault is serviced. The IOMMU records FaultRaised instead.
    WalkResult result;
    result.walk = std::move(current_);
    result.faulted = true;
    result.faultLevel = level_;
    result.memAccesses = accesses_;
    result.walkerId = id_;
    result.started = started_;
    result.finished = eq_.now();
    result.levelTicks = levelTicks_;

    busy_ = false;
    auto done = std::move(onDone_);
    done(std::move(result));
}

} // namespace gpuwalk::iommu

#include "gpu/compute_unit.hh"

#include <algorithm>

#include "gpu/gpu.hh"

namespace gpuwalk::gpu {

ComputeUnit::ComputeUnit(sim::EventQueue &eq, const GpuConfig &cfg,
                         std::uint32_t cu_id, tlb::TlbHierarchy &tlbs,
                         mem::MemoryTable &memory, mem::MemoryDevice &l1d,
                         Gpu &gpu)
    : eq_(eq), cfg_(cfg), id_(cu_id), tlbs_(tlbs), memory_(memory),
      translationSink_(tlbs.table().attach(*this)),
      memorySink_(memory.attach(*this)), l1d_(l1d), gpu_(gpu),
      issuePort_(eq, cfg.issuePortCycles * cfg.clockPeriod),
      statGroup_("cu" + std::to_string(cu_id))
{
    statGroup_.add(instructions_);
    statGroup_.add(translationReqs_);
    statGroup_.add(lineAccesses_);
}

void
ComputeUnit::addWavefront(std::uint32_t wavefront_global_id,
                          unsigned app_id, WavefrontTrace trace)
{
    GPUWALK_ASSERT(wavefronts_.size() < cfg_.wavefrontsPerCu
                       && wavefronts_.size() <= maxSlot,
                   "CU ", id_, " is full");
    Wavefront wf;
    wf.globalId = wavefront_global_id;
    wf.appId = app_id;
    wf.trace = std::move(trace);
    wavefronts_.push_back(std::move(wf));
    inflight_.emplace_back();

    IssueEvent &ev = issueEvents_.emplace_back();
    ev.cu = this;
    ev.wfIndex = wavefronts_.size() - 1;
}

void
ComputeUnit::IssueEvent::process()
{
    cu->requestIssue(wfIndex);
}

void
ComputeUnit::start()
{
    for (std::size_t i = 0; i < wavefronts_.size(); ++i) {
        // Spread initial issues pseudo-randomly over the stagger
        // window: wavefronts are dispatched by the front-end over
        // time, not all in the same cycle.
        const sim::Cycles offset =
            1 + (wavefronts_[i].globalId * 2654435761ull)
                    % std::max<sim::Cycles>(1, cfg_.startStaggerCycles);
        eq_.scheduleIn(cfg_.clockPeriod * offset, issueEvents_[i]);
    }
}

void
ComputeUnit::notifyWorkAvailable()
{
    for (std::size_t i = 0; i < wavefronts_.size(); ++i) {
        if (!wavefronts_[i].finished)
            continue;
        auto next = gpu_.dispatchNextWavefront();
        if (!next)
            return;
        Wavefront &wf = wavefronts_[i];
        wf.globalId = next->globalId;
        wf.appId = next->appId;
        wf.trace = std::move(next->trace);
        wf.pc = 0;
        wf.finished = false;
        --wavefrontsDone_;
        updateStallState();
        eq_.scheduleIn(cfg_.clockPeriod * cfg_.issueCycles,
                       issueEvents_[i]);
    }
}

void
ComputeUnit::requestIssue(std::size_t wf_index)
{
    // The CU front end issues at most one memory instruction per
    // issue-port period; simultaneously-ready wavefronts serialize
    // and take the port slots in the order they became ready.
    ready_.push_back(wf_index);
    issuePort_.submit([this] { issueReady(); });
}

void
ComputeUnit::issueReady()
{
    const std::size_t wf_index = ready_.front();
    ready_.pop_front();
    issueNext(wf_index);
}

void
ComputeUnit::issueNext(std::size_t wf_index)
{
    Wavefront &wf = wavefronts_[wf_index];
    if (wf.pc >= wf.trace.size()) {
        wf.finished = true;
        ++wavefrontsDone_;
        updateStallState();
        gpu_.onWavefrontDone(wf.appId);

        // The slot is free: dispatch the next queued wavefront into
        // it, as the hardware workgroup dispatcher would.
        if (auto next = gpu_.dispatchNextWavefront()) {
            wf.globalId = next->globalId;
            wf.appId = next->appId;
            wf.trace = std::move(next->trace);
            wf.pc = 0;
            wf.finished = false;
            --wavefrontsDone_;
            updateStallState();
            eq_.scheduleIn(cfg_.clockPeriod * cfg_.issueCycles,
                           issueEvents_[wf_index]);
        }
        return;
    }

    const SimdMemInstruction &instr = wf.trace[wf.pc];
    ++wf.pc;

    const tlb::InstructionId key = gpu_.nextInstructionId();
    InflightInstruction &inst = inflight_[wf_index];
    GPUWALK_ASSERT(!inst.active, "wavefront slot ", wf_index,
                   " issued with an instruction in flight");
    inst.active = true;
    inst.key = key;
    inst.access = tlb::coalesce(instr.laneAddrs);
    inst.translationsPending = 0;
    inst.linesPending = 0;
    inst.isLoad = true;
    inst.computeCycles = 0;

    setBlocked(wf_index, true);

    if (inst.access.pages.empty()) {
        // Degenerate empty instruction: retires after the issue cost.
        eq_.scheduleIn(cfg_.clockPeriod * cfg_.issueCycles,
                       [this, wf_index] { instructionDone(wf_index); });
        return;
    }

    inst.linesPending = static_cast<unsigned>(inst.access.lines.size());
    inst.isLoad = instr.isLoad;
    inst.computeCycles = instr.computeCycles;

    if (cfg_.virtualL1Cache) {
        // Virtual L1: no up-front translation; data accesses go out
        // at virtual addresses and only L1 misses translate (via the
        // TranslatingPort below the cache).
        issueDataAccesses(wf_index, /*virtual_addresses=*/true);
        return;
    }

    const auto &pages = inst.access.pages;
    GPUWALK_ASSERT(pages.size() <= pageIndexMask + 1,
                   "instruction touches too many pages to tag");
    inst.translationsPending = static_cast<unsigned>(pages.size());
    inst.paPages.resize(pages.size());
    translationReqs_ += pages.size();

    tlb::TranslationTable &table = tlbs_.table();
    const tlb::ContextId ctx = gpu_.contextOf(wf.appId);
    for (std::size_t i = 0; i < pages.size(); ++i) {
        const auto tag = static_cast<std::uint32_t>(
            wf_index << pageIndexBits | i);
        const tlb::RequestHandle h = table.acquire(
            {tlb::TranslationRouteKind::Cu, translationSink_, tag});
        tlb::TranslationRequest &req = table.at(h);
        req.vaPage = pages[i];
        req.instruction = key;
        req.wavefront = wf.globalId;
        req.cu = id_;
        req.ctx = ctx;
        tlbs_.translate(h);
    }
}

void
ComputeUnit::translated(const tlb::TranslationRoute &route,
                        mem::Addr pa_page, bool /*large_page*/)
{
    const std::size_t wf_index = route.tag >> pageIndexBits;
    InflightInstruction &inst = inflight_[wf_index];
    GPUWALK_ASSERT(inst.active && inst.translationsPending > 0,
                   "translation for a retired instruction");
    inst.paPages[route.tag & pageIndexMask] = pa_page;
    if (--inst.translationsPending == 0)
        issueDataAccesses(wf_index, /*virtual_addresses=*/false);
}

void
ComputeUnit::issueDataAccesses(std::size_t wf_index, bool virtual_addresses)
{
    InflightInstruction &inst = inflight_[wf_index];
    lineAccesses_ += inst.access.lines.size();

    // Physical caches: data could not be touched before translation
    // (paper §I). Virtual L1s issue at the VA and translate on miss.
    const auto tag = static_cast<std::uint32_t>(wf_index);
    const auto &lines = inst.access.lines;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const mem::RequestHandle h = memory_.acquire(
            {mem::MemoryRouteKind::CuLine, memorySink_, tag});
        mem::MemoryRequest &req = memory_.at(h);
        if (virtual_addresses) {
            req.addr = lines[i];
        } else {
            req.addr = inst.paPages[inst.access.linePages[i]]
                       | (lines[i] & (mem::pageSize - 1));
        }
        req.size = static_cast<unsigned>(mem::cacheLineSize);
        req.write = !inst.isLoad;
        req.requester = mem::Requester::GpuData;
        req.instruction = inst.key;
        req.wavefront = wavefronts_[wf_index].globalId;
        req.cu = id_;
        l1d_.access(h);
    }
}

void
ComputeUnit::memoryDone(const mem::MemoryRoute &route)
{
    InflightInstruction &inst = inflight_[route.tag];
    GPUWALK_ASSERT(inst.active && inst.linesPending > 0,
                   "data return for a retired instruction");
    if (--inst.linesPending == 0)
        instructionDone(route.tag);
}

std::size_t
ComputeUnit::translationsInFlight() const
{
    std::size_t n = 0;
    for (const InflightInstruction &inst : inflight_)
        n += inst.active ? inst.translationsPending : 0;
    return n;
}

std::size_t
ComputeUnit::memoryInFlight() const
{
    // Lines go out once every translation is back.
    std::size_t n = 0;
    for (const InflightInstruction &inst : inflight_) {
        if (inst.active && inst.translationsPending == 0)
            n += inst.linesPending;
    }
    return n;
}

void
ComputeUnit::instructionDone(std::size_t wf_index)
{
    InflightInstruction &inst = inflight_[wf_index];
    GPUWALK_ASSERT(inst.active, "retiring an idle wavefront slot");
    inst.active = false;

    ++instructions_;
    setBlocked(wf_index, false);

    eq_.scheduleIn(cfg_.clockPeriod
                       * (inst.computeCycles + cfg_.issueCycles),
                   issueEvents_[wf_index]);
}

void
ComputeUnit::setBlocked(std::size_t wf_index, bool blocked)
{
    Wavefront &wf = wavefronts_[wf_index];
    if (wf.blocked == blocked)
        return;
    wf.blocked = blocked;
    if (blocked) {
        ++blockedCount_;
    } else {
        GPUWALK_ASSERT(blockedCount_ > 0, "blocked count underflow");
        --blockedCount_;
    }
    updateStallState();
}

void
ComputeUnit::updateStallState()
{
    const unsigned live =
        static_cast<unsigned>(wavefronts_.size()) - wavefrontsDone_;
    const bool now_stalled = live > 0 && blockedCount_ >= live;
    if (now_stalled && !stalled_) {
        stalled_ = true;
        stallStart_ = eq_.now();
    } else if (!now_stalled && stalled_) {
        stalled_ = false;
        stallAccum_ += eq_.now() - stallStart_;
    }
}

} // namespace gpuwalk::gpu

#include "gpu/compute_unit.hh"

#include <algorithm>

#include "gpu/gpu.hh"
#include "trace/trace.hh"

namespace gpuwalk::gpu {

ComputeUnit::ComputeUnit(sim::EventQueue &eq, const GpuConfig &cfg,
                         std::uint32_t cu_id, tlb::TlbHierarchy &tlbs,
                         mem::MemoryDevice &l1d, Gpu &gpu)
    : eq_(eq), cfg_(cfg), id_(cu_id), tlbs_(tlbs), l1d_(l1d), gpu_(gpu),
      issuePort_(eq, cfg.issuePortCycles * cfg.clockPeriod),
      arbiter_(cfg.wavefrontSched,
               cfg.wavefrontSched == WavefrontSchedPolicy::Wasp
                   ? std::min(cfg.waspLeaders, cfg.wavefrontsPerCu)
                   : 0),
      statGroup_("cu" + std::to_string(cu_id))
{
    statGroup_.add(instructions_);
    statGroup_.add(translationReqs_);
    statGroup_.add(lineAccesses_);
    if (cfg_.wavefrontSched == WavefrontSchedPolicy::Wasp)
        statGroup_.add(leaderIssues_);
}

void
ComputeUnit::addWavefront(std::uint32_t wavefront_global_id,
                          unsigned app_id, WavefrontTrace trace)
{
    GPUWALK_ASSERT(wavefronts_.size() < cfg_.wavefrontsPerCu,
                   "CU ", id_, " is full");
    Wavefront wf;
    wf.globalId = wavefront_global_id;
    wf.appId = app_id;
    wf.trace = std::move(trace);
    wavefronts_.push_back(std::move(wf));
    arbiter_.addSlot(wavefront_global_id);

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
        sim::Cycles offset =
            1 + (wavefronts_[i].globalId * 2654435761ull)
                    % std::max<sim::Cycles>(1, cfg_.startStaggerCycles);
        // Wasp de-staggering: followers' first issues are pushed out
        // past the leaders' whole stagger window, giving the leader
        // group an issue-distance head start of waspDistanceCycles.
        if (cfg_.wavefrontSched == WavefrontSchedPolicy::Wasp
            && !arbiter_.isLeader(i)) {
            offset += cfg_.waspDistanceCycles;
        }
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
        arbiter_.onRefill(i, wf.globalId);
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
    // issue-port period; simultaneously-ready wavefronts serialize,
    // and the configured policy picks which ready wavefront takes
    // each slot.
    arbiter_.markReady(wf_index);
    issuePort_.submit([this] { arbitrateIssue(); });
}

void
ComputeUnit::arbitrateIssue()
{
    issueNext(arbiter_.pick());
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
            arbiter_.onRefill(wf_index, wf.globalId);
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
    InflightInstruction inst;
    inst.wfIndex = wf_index;
    inst.access = tlb::coalesce(instr.laneAddrs);

    const bool leader = isLeaderSlot(wf_index);
    if (leader) {
        ++leaderIssues_;
        if (tracer_) {
            trace::Event ev;
            ev.tick = eq_.now();
            ev.kind = trace::EventKind::LeaderIssued;
            ev.ctx = gpu_.contextOf(wf.appId);
            ev.wavefront = wf.globalId;
            ev.instruction = key;
            ev.arg0 = id_;
            ev.arg1 = inst.access.pages.size();
            tracer_->record(ev);
        }
    }

    setBlocked(wf_index, true);

    if (inst.access.pages.empty()) {
        // Degenerate empty instruction: retires after the issue cost.
        inflight_.emplace(key, std::move(inst));
        eq_.scheduleIn(cfg_.clockPeriod * cfg_.issueCycles,
                       [this, key] { instructionDone(key); });
        return;
    }

    inst.translationsPending =
        static_cast<unsigned>(inst.access.pages.size());
    inst.linesPending = static_cast<unsigned>(inst.access.lines.size());
    inst.isLoad = instr.isLoad;
    inst.computeCycles = instr.computeCycles;

    if (cfg_.virtualL1Cache) {
        // Virtual L1: no up-front translation; data accesses go out
        // at virtual addresses and only L1 misses translate (via the
        // TranslatingPort below the cache).
        auto [vit, vinserted] = inflight_.emplace(key, std::move(inst));
        GPUWALK_ASSERT(vinserted, "duplicate instruction key");
        vit->second.translationsPending = 0;
        issueDataAccesses(key, /*virtual_addresses=*/true);
        return;
    }

    translationReqs_ += inst.access.pages.size();

    auto [it, inserted] = inflight_.emplace(key, std::move(inst));
    GPUWALK_ASSERT(inserted, "duplicate instruction key");
    const auto &pages = it->second.access.pages;

    for (mem::Addr page : pages) {
        tlb::TranslationRequest req;
        req.vaPage = page;
        req.instruction = key;
        req.wavefront = wavefronts_[wf_index].globalId;
        req.cu = id_;
        req.app = wavefronts_[wf_index].appId;
        req.ctx = gpu_.contextOf(wavefronts_[wf_index].appId);
        req.leader = leader;
        req.onComplete = [this, key, page](mem::Addr pa_page,
                                           bool /*large_page*/) {
            auto iit = inflight_.find(key);
            GPUWALK_ASSERT(iit != inflight_.end(),
                           "translation for retired instruction");
            iit->second.pageMap[page] = pa_page;
            GPUWALK_ASSERT(iit->second.translationsPending > 0,
                           "translation underflow");
            if (--iit->second.translationsPending == 0)
                translationsDone(key);
        };
        tlbs_.translate(std::move(req));
    }
}

void
ComputeUnit::translationsDone(std::uint64_t instr_key)
{
    issueDataAccesses(instr_key, /*virtual_addresses=*/false);
}

void
ComputeUnit::issueDataAccesses(std::uint64_t instr_key,
                               bool virtual_addresses)
{
    InflightInstruction &inst = inflight_.at(instr_key);
    lineAccesses_ += inst.access.lines.size();

    // Physical caches: data could not be touched before translation
    // (paper §I). Virtual L1s issue at the VA and translate on miss.
    for (mem::Addr line : inst.access.lines) {
        mem::MemoryRequest req;
        if (virtual_addresses) {
            req.addr = line;
        } else {
            const mem::Addr va_page = mem::pageAlign(line);
            auto pit = inst.pageMap.find(va_page);
            GPUWALK_ASSERT(pit != inst.pageMap.end(),
                           "line without translated page");
            req.addr = pit->second | (line & (mem::pageSize - 1));
        }
        req.size = static_cast<unsigned>(mem::cacheLineSize);
        req.write = !inst.isLoad;
        req.requester = mem::Requester::GpuData;
        req.instruction = instr_key;
        req.wavefront = wavefronts_[inst.wfIndex].globalId;
        req.cu = id_;
        req.onComplete = [this, instr_key] {
            auto iit = inflight_.find(instr_key);
            GPUWALK_ASSERT(iit != inflight_.end(),
                           "data return for retired instruction");
            GPUWALK_ASSERT(iit->second.linesPending > 0,
                           "line underflow");
            if (--iit->second.linesPending == 0)
                instructionDone(instr_key);
        };
        l1d_.access(std::move(req));
    }
}

void
ComputeUnit::instructionDone(std::uint64_t instr_key)
{
    auto it = inflight_.find(instr_key);
    GPUWALK_ASSERT(it != inflight_.end(), "retiring unknown instruction");
    const std::size_t wf_index = it->second.wfIndex;
    const sim::Cycles compute = it->second.computeCycles;
    inflight_.erase(it);

    ++instructions_;
    setBlocked(wf_index, false);

    eq_.scheduleIn(cfg_.clockPeriod * (compute + cfg_.issueCycles),
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

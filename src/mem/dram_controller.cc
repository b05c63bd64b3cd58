#include "mem/dram_controller.hh"

#include <algorithm>

#include "sim/audit.hh"
#include "sim/port.hh"

namespace gpuwalk::mem {

DramController::DramController(sim::EventQueue &eq, const DramConfig &cfg,
                               MemoryTable &table)
    : eq_(eq), cfg_(cfg), table_(table), mapper_(cfg), statGroup_("dram")
{
    cfg_.validate();
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        Channel &ch = channels_.emplace_back();
        ch.banks.resize(mapper_.banksPerChannel());
        ch.drain.ctrl = this;
        ch.drain.chan = c;
    }

    statGroup_.add(reads_);
    statGroup_.add(writes_);
    statGroup_.add(rowHits_);
    statGroup_.add(rowMisses_);
    statGroup_.add(rowConflicts_);
    statGroup_.add(walkAccesses_);
    statGroup_.add(refreshDelays_);
    statGroup_.add(latency_);
    statGroup_.add(queueDepth_);
}

void
DramController::registerInvariants(sim::Auditor &auditor)
{
    auditor.registerInvariant(
        "dram.queues_drained", [this](sim::AuditContext &ctx) {
            if (!ctx.final())
                return;
            for (std::size_t c = 0; c < channels_.size(); ++c) {
                ctx.require(channels_[c].queue.empty(), "channel ", c,
                            " holds ", channels_[c].queue.size(),
                            " requests at drain");
            }
        });
}

void
DramController::access(RequestHandle req)
{
    const MemoryRequest &r = table_.at(req);
    Pending p;
    p.where = mapper_.decode(r.addr);
    p.req = req;
    p.arrival = eq_.now();
    p.seq = nextSeq_++;

    if (r.write)
        ++writes_;
    else
        ++reads_;
    if (r.requester == Requester::PageWalk)
        ++walkAccesses_;

    unsigned chan = p.where.channel;
    queueDepth_.sample(static_cast<double>(channels_[chan].queue.size()));
    channels_[chan].queue.push_back(p);
    trySchedule(chan);
}

void
DramController::trySchedule(unsigned chan)
{
    Channel &ch = channels_[chan];
    if (ch.queue.empty())
        return;

    const sim::Tick now = eq_.now();

    // FR-FCFS: find the best issuable request. A request is issuable
    // when its bank can accept a new command now; banks operate in
    // parallel and only the data bursts serialize on the channel bus.
    // Among candidates, row hits beat non-hits, then age.
    std::size_t best = ch.queue.size();
    bool best_hit = false;
    sim::Tick soonest = sim::maxTick;

    for (std::size_t i = 0; i < ch.queue.size(); ++i) {
        const Pending &p = ch.queue[i];
        const BankState &bank = ch.banks[mapper_.flatBank(p.where)];
        const bool hit = bank.rowOpen && bank.openRow == p.where.row;
        soonest = std::min(soonest, bank.readyAt);

        if (bank.readyAt > now)
            continue; // bank busy this instant
        if (best == ch.queue.size() || (hit && !best_hit)) {
            best = i;
            best_hit = hit;
        }
    }

    if (best < ch.queue.size()) {
        issue(ch, best);
        // More requests may be issuable back to back.
        if (!ch.queue.empty())
            trySchedule(chan);
        return;
    }

    // Nothing issuable now: wake up when the earliest constraint clears.
    if (!ch.drain.scheduled() && soonest != sim::maxTick && soonest > now)
        eq_.schedule(soonest, ch.drain);
}

void
DramController::DrainEvent::process()
{
    ctrl->trySchedule(chan);
}

void
DramController::issue(Channel &ch, std::size_t idx)
{
    const Pending p = ch.queue[idx];
    ch.queue.erase(ch.queue.begin() + static_cast<std::ptrdiff_t>(idx));
    MemoryRequest &req = table_.at(p.req);

    const sim::Tick now = eq_.now();
    BankState &bank = ch.banks[mapper_.flatBank(p.where)];

    // Bank command timing: PRE/ACT/CAS overlap freely across banks.
    sim::Tick cmd_start = std::max(now, bank.readyAt);
    cmd_start = applyRefresh(bank, p.where.rank, cmd_start);
    sim::Tick ready_for_data = 0;

    if (bank.rowOpen && bank.openRow == p.where.row) {
        // Row hit: CAS only.
        ++rowHits_;
        ready_for_data = cmd_start + cfg_.cl();
    } else if (!bank.rowOpen) {
        // Closed bank: ACT then CAS.
        ++rowMisses_;
        ready_for_data = cmd_start + cfg_.rcd() + cfg_.cl();
        bank.activatedAt = cmd_start;
    } else {
        // Conflict: PRE (respecting tRAS), ACT, CAS.
        ++rowConflicts_;
        sim::Tick pre_at = std::max(cmd_start,
                                    bank.activatedAt + cfg_.ras());
        sim::Tick act_at = pre_at + cfg_.rp();
        ready_for_data = act_at + cfg_.rcd() + cfg_.cl();
        bank.activatedAt = act_at;
    }

    bank.rowOpen = true;
    bank.openRow = p.where.row;

    // Only the data burst serializes on the shared channel bus.
    const sim::Tick data_start = std::max(ready_for_data, ch.busFreeAt);
    const sim::Tick done = data_start + cfg_.burst();
    ch.busFreeAt = done;

    // The bank can accept its next CAS tCCD after this one; writes
    // additionally hold it for the write recovery time.
    bank.readyAt = data_start + cfg_.ccd();
    if (req.write)
        bank.readyAt = done + cfg_.wr();

    bank.lastIssue = cmd_start;
    latency_.sample(static_cast<double>(done - p.arrival));

    if (req.reply) {
        // Channel wiring: the finished request travels back on the
        // reply channel, which schedules the same single completion
        // event the direct form below does.
        MemoryReplyChannel *reply = req.reply;
        req.reply = nullptr;
        reply->sendAt(done, p.req);
    } else {
        eq_.schedule(done, [this, h = p.req] { table_.complete(h); });
    }
}

sim::Tick
DramController::applyRefresh(BankState &bank, unsigned rank,
                             sim::Tick when)
{
    if (!cfg_.enableRefresh)
        return when;

    // Ranks refresh out of phase to avoid a system-wide blackout.
    // The first refresh of rank r falls at phase(r) + tREFI; nothing
    // needs refreshing at time zero.
    const sim::Tick phase =
        cfg_.tREFI * rank / std::max(1u, cfg_.ranksPerChannel);
    if (when < phase + cfg_.tREFI)
        return when;
    const sim::Tick window_start =
        (when - phase) / cfg_.tREFI * cfg_.tREFI + phase;

    // A refresh boundary between the bank's last use and now closes
    // its open row (refresh precharges all banks).
    if (bank.rowOpen && bank.lastIssue < window_start)
        bank.rowOpen = false;

    if (when >= window_start && when < window_start + cfg_.tRFC) {
        ++refreshDelays_;
        return window_start + cfg_.tRFC;
    }
    return when;
}

} // namespace gpuwalk::mem

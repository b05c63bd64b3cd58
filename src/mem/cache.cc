#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/audit.hh"

namespace gpuwalk::mem {

Cache::Cache(sim::EventQueue &eq, const CacheConfig &cfg,
             MemoryDevice &below)
    : eq_(eq), cfg_(cfg), below_(below), statGroup_(cfg.name)
{
    GPUWALK_ASSERT(cfg_.sizeBytes % (cfg_.lineBytes * cfg_.associativity)
                       == 0,
                   "cache size not divisible by way size");
    numSets_ = cfg_.numSets();
    GPUWALK_ASSERT(std::has_single_bit(numSets_)
                       && std::has_single_bit(cfg_.lineBytes),
                   "cache set count and line size must be powers of two in ",
                   cfg_.name);
    lineShift_ = static_cast<unsigned>(std::countr_zero(cfg_.lineBytes));
    tagShift_ = lineShift_ + static_cast<unsigned>(std::countr_zero(numSets_));
    const std::size_t slots = numSets_ * cfg_.associativity;
    key_.assign(slots, 0);
    lastUse_.assign(slots, 0);
    dirty_.assign(slots, 0);

    statGroup_.add(hits_);
    statGroup_.add(misses_);
    statGroup_.add(mshrMerges_);
    statGroup_.add(evictions_);
    statGroup_.add(writebacks_);
}

std::size_t
Cache::findLine(Addr addr) const
{
    const std::size_t base = setIndex(addr) * cfg_.associativity;
    const std::uint64_t want = lineKey(addr);
    for (std::size_t i = base; i < base + cfg_.associativity; ++i) {
        if (key_[i] == want)
            return i;
    }
    return npos;
}

void
Cache::installLine(Addr addr, bool dirty)
{
    const Addr set = setIndex(addr);
    const std::size_t base = set * cfg_.associativity;
    // Prefer the first invalid way; otherwise evict true-LRU (first
    // way on lastUse ties).
    std::size_t victim = base;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::size_t i = base; i < base + cfg_.associativity; ++i) {
        if (key_[i] == 0) {
            victim = i;
            break;
        }
        if (lastUse_[i] < oldest) {
            oldest = lastUse_[i];
            victim = i;
        }
    }
    if (key_[victim] != 0) {
        ++evictions_;
        if (dirty_[victim]) {
            ++writebacks_;
            MemoryRequest wb;
            wb.addr = ((key_[victim] >> 1) << tagShift_)
                      | (set << lineShift_);
            wb.write = true;
            wb.requester = Requester::GpuData;
            below_.access(std::move(wb));
        }
    }
    key_[victim] = lineKey(addr);
    dirty_[victim] = dirty ? 1 : 0;
    lastUse_[victim] = ++useClock_;
}

void
Cache::access(MemoryRequest req)
{
    const Addr line_addr = req.addr & ~(cfg_.lineBytes - 1);

    if (const std::size_t line = findLine(req.addr); line != npos) {
        ++hits_;
        lastUse_[line] = ++useClock_;
        dirty_[line] |= req.write ? 1 : 0;
        eq_.scheduleIn(cfg_.hitLatency,
                       [r = std::move(req)]() mutable { r.complete(); });
        return;
    }

    // Miss: merge into an existing MSHR if the line is already inbound.
    auto it = mshrs_.find(line_addr);
    if (it != mshrs_.end()) {
        ++mshrMerges_;
        it->second->anyWrite = it->second->anyWrite || req.write;
        it->second->waiters.push_back(std::move(req));
        return;
    }

    ++misses_;
    Mshr *mshr = mshrPool_.acquire();
    mshr->anyWrite = req.write;
    mshr->waiters.push_back(std::move(req));
    mshrs_.emplace(line_addr, mshr);

    MemoryRequest fill;
    fill.addr = line_addr;
    fill.size = static_cast<unsigned>(cfg_.lineBytes);
    fill.write = false;
    fill.requester = mshr->waiters.front().requester;
    fill.instruction = mshr->waiters.front().instruction;
    fill.wavefront = mshr->waiters.front().wavefront;
    fill.cu = mshr->waiters.front().cu;
    fill.onComplete = [this, line_addr] { handleFill(line_addr); };
    // Tag lookup happens before the fill is sent downstream.
    eq_.scheduleIn(cfg_.tagLatency,
                   [this, f = std::move(fill)]() mutable {
                       below_.access(std::move(f));
                   });
}

void
Cache::handleFill(Addr line_addr)
{
    auto it = mshrs_.find(line_addr);
    GPUWALK_ASSERT(it != mshrs_.end(), "fill without MSHR for ",
                   line_addr);
    Mshr *mshr = it->second;
    mshrs_.erase(it);

    installLine(line_addr, mshr->anyWrite);

    for (auto &w : mshr->waiters) {
        eq_.scheduleIn(cfg_.hitLatency,
                       [r = std::move(w)]() mutable { r.complete(); });
    }
    mshr->waiters.clear();
    mshrPool_.release(mshr);
}

void
Cache::registerInvariants(sim::Auditor &auditor)
{
    auditor.registerInvariant(
        cfg_.name + ".mshrs", [this](sim::AuditContext &ctx) {
            ctx.require(mshrPool_.inUse() == mshrs_.size(),
                        "MSHR pool live count ", mshrPool_.inUse(),
                        " != tracked in-flight lines ", mshrs_.size());
            if (!ctx.final())
                return;
            ctx.require(mshrs_.empty(), mshrs_.size(),
                        " in-flight misses never filled");
            ctx.require(mshrPool_.inUse() == 0, "MSHR pool leaks ",
                        mshrPool_.inUse(), " entries at drain");
        });
}

void
Cache::flushAll()
{
    std::fill(key_.begin(), key_.end(), std::uint64_t{0});
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
}

} // namespace gpuwalk::mem

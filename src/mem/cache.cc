#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/audit.hh"

namespace gpuwalk::mem {

namespace {

/** The set count of @p cfg, after checking the geometry. */
Addr
checkedSets(const CacheConfig &cfg)
{
    GPUWALK_ASSERT(cfg.sizeBytes % (cfg.lineBytes * cfg.associativity) == 0,
                   "cache size not divisible by way size");
    GPUWALK_ASSERT(std::has_single_bit(cfg.numSets())
                       && std::has_single_bit(cfg.lineBytes),
                   "cache set count and line size must be powers of two in ",
                   cfg.name);
    return cfg.numSets();
}

} // namespace

Cache::Cache(sim::EventQueue &eq, const CacheConfig &cfg,
             MemoryTable &table, MemoryDevice &below)
    : eq_(eq), cfg_(cfg), table_(table), sinkId_(table.attach(*this)),
      below_(below), numSets_(checkedSets(cfg)),
      lineShift_(static_cast<unsigned>(std::countr_zero(cfg.lineBytes))),
      tagShift_(lineShift_
                + static_cast<unsigned>(std::countr_zero(numSets_))),
      tags_(numSets_, cfg.associativity),
      dirty_(numSets_ * cfg.associativity, 0), statGroup_(cfg.name)
{
    statGroup_.add(hits_);
    statGroup_.add(misses_);
    statGroup_.add(mshrMerges_);
    statGroup_.add(evictions_);
    statGroup_.add(writebacks_);
}

void
Cache::installLine(Addr addr, bool dirty)
{
    const Addr set = setIndex(addr);
    // The first invalid way, else the true-LRU way.
    const std::size_t victim = tags_.victim(set);
    if (const std::uint64_t old = tags_.key(victim)) {
        ++evictions_;
        if (dirty_[victim]) {
            ++writebacks_;
            const RequestHandle wb = table_.acquire();
            MemoryRequest &w = table_.at(wb);
            w.addr = ((old >> 1) << tagShift_) | (set << lineShift_);
            w.write = true;
            w.requester = Requester::GpuData;
            below_.access(wb);
        }
    }
    tags_.fill(set, victim, lineKey(addr));
    dirty_[victim] = dirty ? 1 : 0;
}

void
Cache::access(RequestHandle h)
{
    const MemoryRequest &req = table_.at(h);
    const Addr line_addr = req.addr & ~(cfg_.lineBytes - 1);

    const Addr set = setIndex(req.addr);
    if (const std::size_t line = tags_.find(set, lineKey(req.addr));
        line != sim::SetAssocTags::npos) {
        ++hits_;
        tags_.touch(set, line);
        dirty_[line] |= req.write ? 1 : 0;
        eq_.scheduleIn(cfg_.hitLatency, [this, h] { table_.complete(h); });
        return;
    }

    // Miss: merge into an existing MSHR if the line is already inbound.
    auto it = mshrs_.find(line_addr);
    if (it != mshrs_.end()) {
        ++mshrMerges_;
        Mshr &mshr = mshrPool_.at(it->second);
        mshr.anyWrite = mshr.anyWrite || req.write;
        mshr.waiters.push_back(h);
        return;
    }

    ++misses_;
    const sim::Handle m = mshrPool_.acquire();
    Mshr &mshr = mshrPool_.at(m);
    mshr.lineAddr = line_addr;
    mshr.anyWrite = req.write;
    mshr.waiters.push_back(h);
    mshrs_.emplace(line_addr, m);

    const RequestHandle fill =
        table_.acquire({MemoryRouteKind::CacheMshr, sinkId_, m});
    MemoryRequest &f = table_.at(fill);
    f.addr = line_addr;
    f.size = static_cast<unsigned>(cfg_.lineBytes);
    f.write = false;
    f.requester = req.requester;
    f.instruction = req.instruction;
    f.wavefront = req.wavefront;
    f.cu = req.cu;
    // Tag lookup happens before the fill is sent downstream.
    eq_.scheduleIn(cfg_.tagLatency, [this, fill] { below_.access(fill); });
}

void
Cache::memoryDone(const MemoryRoute &route)
{
    handleFill(route.tag);
}

void
Cache::handleFill(sim::Handle m)
{
    Mshr &mshr = mshrPool_.at(m);
    mshrs_.erase(mshr.lineAddr);

    installLine(mshr.lineAddr, mshr.anyWrite);

    for (RequestHandle w : mshr.waiters)
        eq_.scheduleIn(cfg_.hitLatency, [this, w] { table_.complete(w); });
    mshr.waiters.clear();
    mshrPool_.release(m);
}

void
Cache::registerInvariants(sim::Auditor &auditor)
{
    auditor.registerInvariant(
        cfg_.name + ".mshrs", [this](sim::AuditContext &ctx) {
            ctx.require(mshrPool_.live() == mshrs_.size(),
                        "MSHR pool live count ", mshrPool_.live(),
                        " != tracked in-flight lines ", mshrs_.size());
            if (!ctx.final())
                return;
            ctx.require(mshrs_.empty(), mshrs_.size(),
                        " in-flight misses never filled");
            ctx.require(mshrPool_.live() == 0, "MSHR pool leaks ",
                        mshrPool_.live(), " entries at drain");
        });
}

void
Cache::flushAll()
{
    tags_.invalidateAll();
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
}

} // namespace gpuwalk::mem

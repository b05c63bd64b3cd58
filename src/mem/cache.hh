/**
 * @file
 * Set-associative, write-back, write-allocate timing cache with MSHRs.
 *
 * Used for the GPU's L1 data caches (per CU) and the shared L2 (Table
 * I: 32 KB/16-way and 4 MB/16-way, 64 B lines). The model is timing
 * only — data contents are not stored; functional state (page tables)
 * lives in the BackingStore and is accessed uncached by the walker
 * model's functional reads.
 *
 * Line tags live in a sim::SetAssocTags (one tag+valid key per way,
 * found by fingerprint, true-LRU victim in O(1)); the dirty bit sits
 * beside it in a column indexed by the same slot (set * ways + way).
 * Set count and line size must be powers of two, so indexing is a
 * shift and a mask — every configured cache qualifies.
 */

#ifndef GPUWALK_MEM_CACHE_HH
#define GPUWALK_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/set_assoc_tags.hh"
#include "sim/slot_table.hh"
#include "sim/stats.hh"

namespace gpuwalk::sim {
class Auditor;
} // namespace gpuwalk::sim

namespace gpuwalk::mem {

/** Geometry and timing of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    Addr sizeBytes = 32 * 1024;
    unsigned associativity = 16;
    Addr lineBytes = cacheLineSize;
    sim::Tick hitLatency = 1 * 500;   ///< ticks (1 GPU cycle default)
    sim::Tick tagLatency = 1 * 500;   ///< added on the miss path
    unsigned mshrs = 32;              ///< distinct outstanding lines

    Addr numSets() const
    {
        return sizeBytes / (lineBytes * associativity);
    }
};

/**
 * A blocking-free (MSHR-based) timing cache. A miss sends a fill
 * routed back here (CacheMshr) with its MSHR as the tag; the fill
 * completes every request merged into that MSHR.
 */
class Cache final : public MemoryDevice, public MemorySink
{
  public:
    /**
     * @param eq The system event queue.
     * @param cfg Geometry/timing.
     * @param table The table memory requests live in.
     * @param below The next level (L2 or the DRAM controller).
     */
    Cache(sim::EventQueue &eq, const CacheConfig &cfg, MemoryTable &table,
          MemoryDevice &below);

    void access(RequestHandle req) override;

    /** A fill came back. */
    void memoryDone(const MemoryRoute &route) override;

    /** One fill per MSHR in flight. */
    std::size_t memoryInFlight() const override { return mshrs_.size(); }

    sim::StatGroup &stats() { return statGroup_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    std::uint64_t mshrMerges() const { return mshrMerges_.value(); }

    /** Fraction of accesses that hit (0 if none). */
    double
    hitRate() const
    {
        const std::uint64_t total = hits_.value() + misses_.value();
        return total ? static_cast<double>(hits_.value()) / total : 0.0;
    }

    /** Invalidates all lines (e.g., between experiment phases). */
    void flushAll();

    /**
     * Registers this cache's conservation invariants (MSHR table vs.
     * pool accounting), named after the cache so one auditor can hold
     * every cache in the system apart.
     */
    void registerInvariants(sim::Auditor &auditor);

  private:
    /** Pooled and recycled with its waiter-vector capacity intact, so
     *  the steady-state miss path does not allocate. */
    struct Mshr
    {
        Addr lineAddr = 0;
        std::vector<RequestHandle> waiters;
        bool anyWrite = false;
    };

    Addr setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & (numSets_ - 1);
    }
    Addr tagOf(Addr addr) const { return addr >> tagShift_; }

    /** Tag+valid word of a resident line holding @p addr; 0 marks an
     *  invalid way. */
    std::uint64_t lineKey(Addr addr) const { return (tagOf(addr) << 1) | 1; }

    void installLine(Addr addr, bool dirty);
    void handleFill(sim::Handle mshr);

    sim::EventQueue &eq_;
    CacheConfig cfg_;
    MemoryTable &table_;
    std::uint16_t sinkId_;
    MemoryDevice &below_;
    Addr numSets_ = 0;
    unsigned lineShift_ = 0; ///< log2(lineBytes)
    unsigned tagShift_ = 0;  ///< log2(lineBytes * numSets)

    /** lineKey() per way; slot = set * associativity + way. */
    sim::SetAssocTags tags_;
    std::vector<std::uint8_t> dirty_; ///< by slot
    sim::FlatMap<Addr, sim::Handle> mshrs_; ///< keyed by line base addr
    sim::SlotTable<Mshr> mshrPool_;

    sim::StatGroup statGroup_;
    sim::Counter hits_{"hits", "demand hits"};
    sim::Counter misses_{"misses", "demand misses (MSHR allocations)"};
    sim::Counter mshrMerges_{"mshr_merges",
                             "requests merged into an in-flight miss"};
    sim::Counter evictions_{"evictions", "lines evicted"};
    sim::Counter writebacks_{"writebacks", "dirty lines written back"};
};

} // namespace gpuwalk::mem

#endif // GPUWALK_MEM_CACHE_HH

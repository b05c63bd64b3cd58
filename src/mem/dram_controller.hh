/**
 * @file
 * FR-FCFS memory controller over a multi-channel DDR3 device.
 *
 * Each channel has its own request queue, per-bank row-buffer state,
 * and a shared data bus. Scheduling is First-Ready FCFS with an
 * open-page policy: among issuable requests, row-buffer hits win,
 * then age. This is the conventional baseline the paper assumes for
 * the memory controller (its contribution is upstream, at the IOMMU).
 */

#ifndef GPUWALK_MEM_DRAM_CONTROLLER_HH
#define GPUWALK_MEM_DRAM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/dram.hh"
#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace gpuwalk::sim {
class Auditor;
} // namespace gpuwalk::sim

namespace gpuwalk::mem {

/** Timing-accurate (at the FR-FCFS level) DRAM controller. */
class DramController : public MemoryDevice
{
  public:
    /** @param table The table memory requests live in. */
    DramController(sim::EventQueue &eq, const DramConfig &cfg,
                   MemoryTable &table);

    /** Enqueues a request; schedules its completion through the
     *  table for the tick its data burst ends. */
    void access(RequestHandle req) override;

    /** Statistics group for this controller. */
    sim::StatGroup &stats() { return statGroup_; }

    /** Registers the channel-queue drain invariant. */
    void registerInvariants(sim::Auditor &auditor);

    // Exposed counters for tests and reporting.
    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }
    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }
    std::uint64_t rowConflicts() const { return rowConflicts_.value(); }
    std::uint64_t pageWalkAccesses() const { return walkAccesses_.value(); }

  private:
    struct Pending
    {
        DramAddress where;
        RequestHandle req = sim::noHandle;
        sim::Tick arrival = 0;
        std::uint64_t seq = 0;
    };

    struct BankState
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        sim::Tick readyAt = 0;   ///< earliest next column command
        sim::Tick activatedAt = 0; ///< for tRAS accounting
        sim::Tick lastIssue = 0;   ///< for refresh row-closing
    };

    /**
     * Applies the lazy refresh model: returns the earliest tick >=
     * @p when at which @p bank (in @p rank) can take a command, and
     * closes its row if a refresh boundary passed since its last use.
     */
    sim::Tick applyRefresh(BankState &bank, unsigned rank,
                           sim::Tick when);

    struct Channel
    {
        std::deque<Pending> queue;
        std::vector<BankState> banks;
        sim::Tick busFreeAt = 0;
        /** A drain wake-up, which re-runs the FR-FCFS scan when the
         *  earliest bank constraint clears, is scheduled. At most one
         *  is in flight per channel. */
        bool drainPending = false;
    };

    void trySchedule(unsigned chan);
    void issue(Channel &ch, std::size_t idx);

    sim::EventQueue &eq_;
    DramConfig cfg_;
    MemoryTable &table_;
    DramAddressMapper mapper_;
    std::vector<Channel> channels_;
    std::uint64_t nextSeq_ = 0;

    sim::StatGroup statGroup_;
    sim::Counter reads_{"reads", "DRAM read requests"};
    sim::Counter writes_{"writes", "DRAM write requests"};
    sim::Counter rowHits_{"row_hits", "row-buffer hits"};
    sim::Counter rowMisses_{"row_misses", "row-buffer misses (closed)"};
    sim::Counter rowConflicts_{"row_conflicts", "row-buffer conflicts"};
    sim::Counter walkAccesses_{"walk_accesses",
                               "accesses on behalf of page walks"};
    sim::Counter refreshDelays_{"refresh_delays",
                                "commands pushed past a refresh window"};
    sim::Average latency_{"latency", "request latency (ticks)"};
    sim::Average queueDepth_{"queue_depth", "queue depth at arrival"};
};

} // namespace gpuwalk::mem

#endif // GPUWALK_MEM_DRAM_CONTROLLER_HH

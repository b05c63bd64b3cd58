/**
 * @file
 * A GPU compute unit executing wavefront memory-instruction traces.
 *
 * Each resident wavefront runs its trace in SIMT lockstep: a SIMD
 * memory instruction is coalesced into unique-page translation
 * requests and unique-line cache accesses; the instruction — and
 * hence the wavefront — cannot retire until *all* translations and
 * all data accesses complete (the property the paper's batching idea
 * exploits). The CU tracks its stall time: ticks during which it has
 * live wavefronts but none able to execute (all blocked on memory),
 * the Fig. 9 metric.
 */

#ifndef GPUWALK_GPU_COMPUTE_UNIT_HH
#define GPUWALK_GPU_COMPUTE_UNIT_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/instruction.hh"
#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/rate_limiter.hh"
#include "sim/stats.hh"
#include "tlb/coalescer.hh"
#include "tlb/tlb_hierarchy.hh"

namespace gpuwalk::gpu {

class Gpu;

/**
 * One compute unit plus its resident wavefronts.
 *
 * A wavefront has at most one memory instruction in flight, so the
 * instruction's record lives in the wavefront's slot. Its translation
 * requests route back here tagged with (slot, page index) and its
 * line accesses with the slot.
 */
class ComputeUnit final : public tlb::TranslationSink,
                          public mem::MemorySink
{
  public:
    /**
     * @param eq Event queue.
     * @param cfg GPU shape/timing.
     * @param cu_id This CU's index.
     * @param tlbs The GPU TLB hierarchy (translation path).
     * @param memory The table data accesses live in.
     * @param l1d This CU's L1 data cache (data path).
     * @param gpu Parent, notified when all wavefronts finish.
     */
    ComputeUnit(sim::EventQueue &eq, const GpuConfig &cfg,
                std::uint32_t cu_id, tlb::TlbHierarchy &tlbs,
                mem::MemoryTable &memory, mem::MemoryDevice &l1d,
                Gpu &gpu);

    /** One of this CU's page translations finished. */
    void translated(const tlb::TranslationRoute &route, mem::Addr pa_page,
                    bool large_page) override;

    /** One of this CU's line accesses finished. */
    void memoryDone(const mem::MemoryRoute &route) override;

    /** Translation requests issued and not yet answered. */
    std::size_t translationsInFlight() const override;

    /** Line accesses issued and not yet answered. */
    std::size_t memoryInFlight() const override;

    /**
     * Assigns @p trace to a new resident wavefront.
     * @param wavefront_global_id Unique across the whole GPU.
     * @param app_id Owning application (multi-program runs).
     * @pre called before start(); capacity cfg.wavefrontsPerCu.
     */
    void addWavefront(std::uint32_t wavefront_global_id,
                      unsigned app_id, WavefrontTrace trace);

    /** Begins execution of all resident wavefronts at the next tick. */
    void start();

    /**
     * New work entered the GPU dispatch queue mid-run (tenant
     * arrival): refills this CU's finished wavefront slots, which
     * would otherwise only be re-checked when a resident wavefront
     * retires.
     */
    void notifyWorkAvailable();

    std::uint32_t id() const { return id_; }

    /** Wavefronts that have finished their traces. */
    unsigned wavefrontsDone() const { return wavefrontsDone_; }

    unsigned
    wavefrontsResident() const
    {
        return static_cast<unsigned>(wavefronts_.size());
    }

    bool done() const { return wavefrontsDone_ == wavefronts_.size(); }

    /** Accumulated execution-stall time in ticks (Fig. 9 metric). */
    sim::Tick stallTicks() const { return stallAccum_; }

    /** Instructions retired by this CU. */
    std::uint64_t
    instructionsRetired() const
    {
        return instructions_.value();
    }

    sim::StatGroup &stats() { return statGroup_; }

  private:
    /** A translation's route tag: slot << pageIndexBits | page. */
    static constexpr unsigned pageIndexBits = 16;
    static constexpr std::uint32_t pageIndexMask =
        (std::uint32_t{1} << pageIndexBits) - 1;
    static constexpr std::size_t maxSlot = pageIndexMask;

    /** Execution state of one resident wavefront. */
    struct Wavefront
    {
        std::uint32_t globalId = 0;
        unsigned appId = 0;
        WavefrontTrace trace;
        std::size_t pc = 0;
        bool blocked = false; ///< waiting on an outstanding instruction
        bool finished = false;
    };

    /** Book-keeping for one in-flight SIMD memory instruction. */
    struct InflightInstruction
    {
        bool active = false;
        tlb::InstructionId key = 0; ///< the walk scheduler's tag
        tlb::CoalescedAccess access;
        unsigned translationsPending = 0;
        unsigned linesPending = 0;
        bool isLoad = true;
        sim::Cycles computeCycles = 0;
        /** paPage of each of access.pages, by page index. */
        std::vector<mem::Addr> paPages;
    };

    /**
     * Intrusive issue wake-up, one per wavefront slot. A slot has at
     * most one issue request in flight at a time (it waits in the
     * ready queue, then blocks on its instruction), so a single
     * embedded node per slot replaces the per-issue capturing lambda.
     */
    struct IssueEvent final : sim::Event
    {
        void process() override;

        ComputeUnit *cu = nullptr;
        std::size_t wfIndex = 0;
    };

    void requestIssue(std::size_t wf_index);
    void issueReady();
    void issueNext(std::size_t wf_index);
    void issueDataAccesses(std::size_t wf_index, bool virtual_addresses);
    void instructionDone(std::size_t wf_index);
    void setBlocked(std::size_t wf_index, bool blocked);
    void updateStallState();

    sim::EventQueue &eq_;
    GpuConfig cfg_;
    std::uint32_t id_;
    tlb::TlbHierarchy &tlbs_;
    mem::MemoryTable &memory_;
    std::uint16_t translationSink_;
    std::uint16_t memorySink_;
    mem::MemoryDevice &l1d_;
    Gpu &gpu_;
    sim::RateLimiter issuePort_;

    std::vector<Wavefront> wavefronts_;
    /** deque: intrusive events need stable addresses while scheduled. */
    std::deque<IssueEvent> issueEvents_;
    /** Ready slots waiting for the issue port, in ready order. */
    std::deque<std::size_t> ready_;
    /** The in-flight instruction of each wavefront slot. */
    std::vector<InflightInstruction> inflight_;
    unsigned wavefrontsDone_ = 0;
    unsigned blockedCount_ = 0;

    bool stalled_ = false;
    sim::Tick stallStart_ = 0;
    sim::Tick stallAccum_ = 0;

    sim::StatGroup statGroup_;
    sim::Counter instructions_{"instructions",
                               "SIMD memory instructions retired"};
    sim::Counter translationReqs_{"translation_requests",
                                  "coalesced translation requests"};
    sim::Counter lineAccesses_{"line_accesses",
                               "coalesced data cache accesses"};
};

} // namespace gpuwalk::gpu

#endif // GPUWALK_GPU_COMPUTE_UNIT_HH

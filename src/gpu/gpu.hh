/**
 * @file
 * The GPU top level: a collection of compute units executing one
 * workload, plus kernel-level completion tracking.
 */

#ifndef GPUWALK_GPU_GPU_HH
#define GPUWALK_GPU_GPU_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "gpu/compute_unit.hh"
#include "gpu/gpu_config.hh"
#include "gpu/instruction.hh"

namespace gpuwalk::sim {
class Auditor;
} // namespace gpuwalk::sim

namespace gpuwalk::gpu {

/** The GPU device model (compute side). */
class Gpu
{
  public:
    /**
     * @param eq Event queue.
     * @param cfg GPU shape.
     * @param tlbs Translation path shared by all CUs.
     * @param memory The table data accesses live in.
     * @param l1ds One L1 data cache per CU, indexed by CU id.
     */
    Gpu(sim::EventQueue &eq, const GpuConfig &cfg,
        tlb::TlbHierarchy &tlbs, mem::MemoryTable &memory,
        std::vector<mem::MemoryDevice *> l1ds);

    /**
     * Queues the workload's wavefronts for dispatch. Up to
     * cfg.wavefrontsPerCu run concurrently per CU; as resident
     * wavefronts finish, queued ones are dispatched into the freed
     * slots (the hardware workgroup dispatcher's behaviour). The
     * workload may therefore contain many more wavefronts than fit
     * at once.
     *
     * May be called multiple times with distinct @p app_id values to
     * co-schedule several applications (multi-program contention
     * studies, cf. MASK [13] and the paper's QoS discussion): their
     * wavefronts share the dispatch queue and all translation
     * hardware, and completion is tracked per app.
     */
    void loadWorkload(GpuWorkload workload, unsigned app_id = 0);

    /**
     * Schedules @p workload to join the machine at @p tick (tenant
     * arrival churn). The wavefronts enter the dispatch queue then and
     * fill any finished resident slots immediately; departures need no
     * counterpart — a tenant leaves by draining its trace.
     */
    void loadWorkloadAt(sim::Tick tick, GpuWorkload workload,
                        unsigned app_id);

    /**
     * Maps @p app_id's translation requests to address space @p ctx.
     * Unmapped apps translate in the default context 0, which keeps
     * single-tenant runs on the exact pre-ASID path.
     */
    void setAppContext(unsigned app_id, tlb::ContextId ctx);

    /** The address space @p app_id translates in. */
    tlb::ContextId
    contextOf(unsigned app_id) const
    {
        return app_id < appCtx_.size() ? appCtx_[app_id]
                                       : tlb::defaultContext;
    }

    /** Kicks off execution (schedules first issues). */
    void start();

    /** True once every wavefront has retired its whole trace. */
    bool done() const { return wavefrontsDone_ == totalWavefronts_; }

    /** Tick at which the last wavefront finished. */
    sim::Tick finishTick() const { return finishTick_; }

    /** Number of co-scheduled applications. */
    std::size_t numApps() const { return apps_.size(); }

    /** Tick at which @p app_id's last wavefront finished. */
    sim::Tick
    appFinishTick(unsigned app_id) const
    {
        return apps_.at(app_id).finishTick;
    }

    /** Wavefronts of @p app_id that have retired. */
    unsigned
    appWavefrontsDone(unsigned app_id) const
    {
        return apps_.at(app_id).done;
    }

    /** Registers wavefront-completion invariants (total and per app). */
    void registerInvariants(sim::Auditor &auditor);

    ComputeUnit &cu(std::size_t i) { return *cus_.at(i); }
    std::size_t numCus() const { return cus_.size(); }

    /** Sum of per-CU stall ticks (Fig. 9 numerator). */
    sim::Tick totalStallTicks() const;

    /** Total SIMD memory instructions retired. */
    std::uint64_t totalInstructions() const;

    /** @name Internal interface for ComputeUnit. */
    ///@{
    tlb::InstructionId nextInstructionId() { return nextInstrId_++; }
    void onWavefrontDone(unsigned app_id);

    /** A wavefront assignment: global id, owning app, trace. */
    struct WavefrontAssignment
    {
        std::uint32_t globalId = 0;
        unsigned appId = 0;
        WavefrontTrace trace;
    };

    /**
     * Hands out the next queued wavefront, or nullopt when the
     * dispatch queue is empty.
     */
    std::optional<WavefrontAssignment> dispatchNextWavefront();
    ///@}

    sim::StatGroup &stats() { return statGroup_; }

  private:
    sim::EventQueue &eq_;
    GpuConfig cfg_;
    struct AppState
    {
        unsigned total = 0;
        unsigned done = 0;
        sim::Tick finishTick = 0;
    };

    std::vector<std::unique_ptr<ComputeUnit>> cus_;
    std::deque<std::pair<unsigned, WavefrontTrace>> dispatchQueue_;
    /** Workloads waiting for their loadWorkloadAt() tick; the arrival
     *  event names its entry by index. */
    std::vector<std::pair<GpuWorkload, unsigned>> arrivals_;
    std::vector<AppState> apps_;
    std::vector<tlb::ContextId> appCtx_;
    bool started_ = false;
    tlb::InstructionId nextInstrId_ = 1;
    std::uint32_t nextWavefrontId_ = 0;
    std::size_t residentAssigned_ = 0;
    unsigned totalWavefronts_ = 0;
    unsigned wavefrontsDone_ = 0;
    sim::Tick finishTick_ = 0;

    sim::StatGroup statGroup_;
};

} // namespace gpuwalk::gpu

#endif // GPUWALK_GPU_GPU_HH

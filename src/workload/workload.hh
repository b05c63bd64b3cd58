/**
 * @file
 * Workload generator interface.
 *
 * The paper evaluates unmodified OpenCL/HCC applications on gem5; this
 * reproduction substitutes trace generators that emit each benchmark's
 * *memory-instruction-level access pattern* — which is all the
 * translation path ever observes. Each generator reproduces the
 * property the paper keys on: per-instruction page divergence and TLB
 * locality, at the Table II memory footprint.
 */

#ifndef GPUWALK_WORKLOAD_WORKLOAD_HH
#define GPUWALK_WORKLOAD_WORKLOAD_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "gpu/instruction.hh"
#include "vm/address_space.hh"

namespace gpuwalk::workload {

/** Table II row: identity and footprint of one benchmark. */
struct WorkloadInfo
{
    std::string abbrev;      ///< e.g. "MVT"
    std::string description; ///< Table II description text
    double footprintMB = 0;  ///< Table II memory footprint
    bool irregular = false;  ///< paper's classification

    /**
     * Relative ALU work per memory instruction. Kernels differ widely
     * in arithmetic intensity (XSBench's lookup does dozens of ops per
     * gather; MVT does one multiply-add per element); this scales the
     * base computeCycles so each benchmark's translation demand lands
     * at its natural point relative to walker capacity.
     */
    double computeScale = 1.0;
};

/** Knobs controlling trace generation. */
struct WorkloadParams
{
    /** Total wavefronts (spread round-robin over CUs). */
    unsigned wavefronts = 128;

    /** SIMD memory instructions per wavefront. */
    unsigned instructionsPerWavefront = 48;

    /** RNG seed; identical params produce identical traces. */
    std::uint64_t seed = 42;

    /**
     * Scales each benchmark's Table II footprint (1.0 = paper size).
     * Unit tests use small scales for speed; experiments use 1.0.
     */
    double footprintScale = 1.0;

    /** Compute cycles between memory instructions. */
    sim::Cycles computeCycles = 20;

    /**
     * Back every buffer with 2 MB large pages instead of 4 KB base
     * pages (the paper's "why not large pages?" ablation, SVI).
     */
    bool useLargePages = false;
};

/** Base class for the twelve Table II benchmark models. */
class WorkloadGenerator
{
  public:
    explicit WorkloadGenerator(WorkloadInfo info) : info_(std::move(info))
    {}

    virtual ~WorkloadGenerator() = default;

    const WorkloadInfo &info() const { return info_; }

    /**
     * Allocates the benchmark's buffers in @p as (eagerly mapped) and
     * produces per-wavefront instruction traces.
     */
    gpu::GpuWorkload
    generate(vm::AddressSpace &as, const WorkloadParams &params)
    {
        return doGenerate(as, params);
    }

    /**
     * Scaled footprint in bytes under @p params, floored at 1 MB so
     * extreme test scales still leave generators valid regions.
     */
    mem::Addr
    scaledFootprintBytes(const WorkloadParams &params) const
    {
        const auto bytes = static_cast<mem::Addr>(
            info_.footprintMB * 1024.0 * 1024.0 * params.footprintScale);
        return std::max<mem::Addr>(bytes, 1024 * 1024);
    }

    /** Base inter-instruction compute for this benchmark. */
    sim::Cycles
    baseCompute(const WorkloadParams &params) const
    {
        return static_cast<sim::Cycles>(
            static_cast<double>(params.computeCycles) * info_.computeScale);
    }

  private:
    virtual gpu::GpuWorkload doGenerate(vm::AddressSpace &as,
                                        const WorkloadParams &params) = 0;

    WorkloadInfo info_;
};

} // namespace gpuwalk::workload

#endif // GPUWALK_WORKLOAD_WORKLOAD_HH

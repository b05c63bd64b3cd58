/**
 * @file
 * The GPU workload representation: per-wavefront streams of SIMD
 * memory instructions.
 *
 * The simulator is trace-driven at the memory-instruction level: a
 * workload supplies, for every wavefront, the sequence of SIMD
 * loads/stores it executes and the virtual address touched by each
 * active lane. Non-memory instructions are abstracted as a compute
 * delay between memory instructions. This is exactly the granularity
 * the paper's mechanism observes — the IOMMU never sees anything
 * finer than "instruction X needs translations for pages P1..Pn".
 */

#ifndef GPUWALK_GPU_INSTRUCTION_HH
#define GPUWALK_GPU_INSTRUCTION_HH

#include <cstdint>
#include <vector>

#include "mem/types.hh"
#include "sim/ticks.hh"

namespace gpuwalk::gpu {

/** Lanes per wavefront (Table I: 64 threads per wavefront). */
constexpr unsigned wavefrontSize = 64;

/** Largest computeCycles of one instruction (2^32 - 1): a wavefront's
 *  compute gaps in ticks stay far from wrapping. */
inline constexpr std::uint64_t maxComputeCycles = 0xffff'ffff;

/** One SIMD memory instruction executed by a wavefront. */
struct SimdMemInstruction
{
    /** Per-active-lane virtual addresses (1..wavefrontSize entries). */
    std::vector<mem::Addr> laneAddrs;

    /** False for stores. Timing-wise both block the wavefront. */
    bool isLoad = true;

    /**
     * GPU cycles of non-memory work after this instruction completes
     * and before the wavefront issues its next memory instruction.
     */
    sim::Cycles computeCycles = 20;
};

/** The full memory-instruction trace of one wavefront. */
using WavefrontTrace = std::vector<SimdMemInstruction>;

/** A workload: one trace per wavefront, in wavefront-ID order. */
struct GpuWorkload
{
    std::vector<WavefrontTrace> traces;

    std::size_t wavefronts() const { return traces.size(); }

    std::size_t
    totalInstructions() const
    {
        std::size_t n = 0;
        for (const auto &t : traces)
            n += t.size();
        return n;
    }
};

} // namespace gpuwalk::gpu

#endif // GPUWALK_GPU_INSTRUCTION_HH

/**
 * @file
 * GPU organization parameters (Table I defaults).
 */

#ifndef GPUWALK_GPU_GPU_CONFIG_HH
#define GPUWALK_GPU_GPU_CONFIG_HH

#include "sim/ticks.hh"

namespace gpuwalk::gpu {

/** Shape and timing of the GPU compute side. */
struct GpuConfig
{
    unsigned numCus = 8;        ///< compute units
    unsigned simdPerCu = 4;     ///< SIMD units per CU (informational)
    unsigned simdWidth = 16;    ///< lanes per SIMD unit (informational)

    /**
     * Resident wavefronts per CU. Each wavefront has at most one
     * memory instruction outstanding (SIMT lockstep), so this is also
     * the CU's maximum memory-level parallelism in instructions.
     * Finished wavefronts' slots are refilled from the dispatch
     * queue. The default is calibrated so the irregular workloads'
     * translation demand sits at the walker-capacity knee, where the
     * paper's first/last walk-latency ratios (Fig. 6) are reproduced.
     */
    unsigned wavefrontsPerCu = 2;

    /** GPU clock period in ticks (2 GHz). */
    sim::Tick clockPeriod = 500;

    /** Fixed issue cost of a memory instruction, cycles. */
    sim::Cycles issueCycles = 4;

    /**
     * CU front-end issue bandwidth: one memory instruction may enter
     * execution per this many cycles (a single-ported front end).
     * Wavefronts ready in the same cycle serialize here, in the
     * order they became ready.
     */
    sim::Cycles issuePortCycles = 1;

    /**
     * Virtually-addressed L1 data caches (Yoon et al. [43]): the data
     * path issues VA accesses to the L1, and translation happens only
     * on L1 misses, through a TranslatingPort the System wires in
     * below each L1. The SIMT translation phase before data access is
     * skipped entirely.
     */
    bool virtualL1Cache = false;

    /**
     * Window (in cycles) over which resident wavefronts' first issues
     * are spread, mimicking front-end dispatch serialization. Each
     * wavefront gets a deterministic pseudo-random offset.
     */
    sim::Cycles startStaggerCycles = 512;
};

} // namespace gpuwalk::gpu

#endif // GPUWALK_GPU_GPU_CONFIG_HH

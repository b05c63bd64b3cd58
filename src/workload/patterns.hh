/**
 * @file
 * Building blocks for lane-address patterns.
 *
 * The coalescer turns these into translation/cache requests, so the
 * only thing that matters about a pattern is which pages and lines
 * its 64 lanes touch:
 *  - strided with stride >= 4 KB: one page per lane (fully divergent);
 *  - sequential small elements: one or two pages total (coalesced);
 *  - broadcast: one page;
 *  - random: as divergent as the region allows, no reuse.
 */

#ifndef GPUWALK_WORKLOAD_PATTERNS_HH
#define GPUWALK_WORKLOAD_PATTERNS_HH

#include <vector>

#include "gpu/instruction.hh"
#include "sim/rng.hh"
#include "vm/address_space.hh"

namespace gpuwalk::workload {

/** lane i -> base + i * stride (column walks, diagonal sweeps). */
std::vector<mem::Addr> stridedLanes(mem::Addr base, mem::Addr stride,
                                    unsigned lanes = gpu::wavefrontSize);

/** lane i -> base + i * elem_bytes (unit-stride streaming). */
std::vector<mem::Addr>
sequentialLanes(mem::Addr base, mem::Addr elem_bytes,
                unsigned lanes = gpu::wavefrontSize);

/** every lane -> addr (scalar/broadcast operand). */
std::vector<mem::Addr>
broadcastLanes(mem::Addr addr, unsigned lanes = gpu::wavefrontSize);

/** lane i -> random element-aligned address within @p region. */
std::vector<mem::Addr>
randomLanes(sim::Rng &rng, const vm::VaRegion &region,
            mem::Addr elem_bytes, unsigned lanes = gpu::wavefrontSize);

/**
 * lane i -> element-aligned address within a window of @p region
 * centred near @p focus_elem (graph-style gathers with community
 * locality). The window is clamped to the region.
 */
std::vector<mem::Addr>
windowedRandomLanes(sim::Rng &rng, const vm::VaRegion &region,
                    mem::Addr elem_bytes, std::uint64_t focus_elem,
                    std::uint64_t window_elems,
                    unsigned lanes = gpu::wavefrontSize);

/** Convenience: wraps lanes into an instruction. The compute gap is
 *  capped at gpu::maxComputeCycles, so a wavefront's compute gaps in
 *  ticks do not wrap. */
gpu::SimdMemInstruction
makeInstr(std::vector<mem::Addr> lanes, bool is_load,
          sim::Cycles compute_cycles);

/**
 * Draws a per-instruction compute delay in [base/2, 3*base/2).
 * Real kernels interleave variable amounts of ALU work between
 * memory instructions; without this jitter, identical synthetic
 * wavefronts march in artificial convoys.
 */
sim::Cycles jitteredCompute(sim::Rng &rng, sim::Cycles base);

/**
 * Active lane count for one SIMD instruction: usually the full
 * wavefront, sometimes a partial mask (loop tails, branch masking).
 * @param partial_prob Probability of a partial mask.
 */
unsigned activeLaneCount(sim::Rng &rng, double partial_prob = 0.2);

/** Largest N with N*N*elem_bytes <= footprint_bytes (square matrix). */
std::uint64_t squareDim(mem::Addr footprint_bytes, mem::Addr elem_bytes);

} // namespace gpuwalk::workload

#endif // GPUWALK_WORKLOAD_PATTERNS_HH

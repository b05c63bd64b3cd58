#include "workload/patterns.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace gpuwalk::workload {

std::vector<mem::Addr>
stridedLanes(mem::Addr base, mem::Addr stride, unsigned lanes)
{
    std::vector<mem::Addr> out;
    out.reserve(lanes);
    for (unsigned i = 0; i < lanes; ++i)
        out.push_back(base + mem::Addr(i) * stride);
    return out;
}

std::vector<mem::Addr>
sequentialLanes(mem::Addr base, mem::Addr elem_bytes, unsigned lanes)
{
    return stridedLanes(base, elem_bytes, lanes);
}

std::vector<mem::Addr>
broadcastLanes(mem::Addr addr, unsigned lanes)
{
    return std::vector<mem::Addr>(lanes, addr);
}

std::vector<mem::Addr>
randomLanes(sim::Rng &rng, const vm::VaRegion &region,
            mem::Addr elem_bytes, unsigned lanes)
{
    GPUWALK_ASSERT(region.bytes >= elem_bytes, "region too small");
    const std::uint64_t elems = region.bytes / elem_bytes;
    std::vector<mem::Addr> out;
    out.reserve(lanes);
    for (unsigned i = 0; i < lanes; ++i)
        out.push_back(region.base + rng.below(elems) * elem_bytes);
    return out;
}

std::vector<mem::Addr>
windowedRandomLanes(sim::Rng &rng, const vm::VaRegion &region,
                    mem::Addr elem_bytes, std::uint64_t focus_elem,
                    std::uint64_t window_elems, unsigned lanes)
{
    const std::uint64_t elems = region.bytes / elem_bytes;
    GPUWALK_ASSERT(elems > 0, "region too small");
    const std::uint64_t half = window_elems / 2;
    const std::uint64_t centre = std::min(focus_elem, elems - 1);
    const std::uint64_t lo = centre > half ? centre - half : 0;
    const std::uint64_t hi = std::min(elems - 1, centre + half);
    std::vector<mem::Addr> out;
    out.reserve(lanes);
    for (unsigned i = 0; i < lanes; ++i)
        out.push_back(region.base + rng.range(lo, hi) * elem_bytes);
    return out;
}

gpu::SimdMemInstruction
makeInstr(std::vector<mem::Addr> lanes, bool is_load,
          sim::Cycles compute_cycles)
{
    gpu::SimdMemInstruction instr;
    instr.laneAddrs = std::move(lanes);
    instr.isLoad = is_load;
    instr.computeCycles = std::min(compute_cycles, gpu::maxComputeCycles);
    return instr;
}

sim::Cycles
jitteredCompute(sim::Rng &rng, sim::Cycles base)
{
    if (base < 2)
        return base;
    return base / 2 + rng.below(base);
}

unsigned
activeLaneCount(sim::Rng &rng, double partial_prob)
{
    if (!rng.chance(partial_prob))
        return gpu::wavefrontSize;
    // Partial masks cluster at power-of-two-ish fractions.
    return static_cast<unsigned>(
        rng.range(gpu::wavefrontSize / 8, gpu::wavefrontSize - 1));
}

std::uint64_t
squareDim(mem::Addr footprint_bytes, mem::Addr elem_bytes)
{
    const double n = std::sqrt(static_cast<double>(footprint_bytes)
                               / static_cast<double>(elem_bytes));
    return std::max<std::uint64_t>(
        gpu::wavefrontSize, static_cast<std::uint64_t>(n));
}

} // namespace gpuwalk::workload

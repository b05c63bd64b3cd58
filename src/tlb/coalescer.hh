/**
 * @file
 * The hardware coalescer.
 *
 * Given the per-lane addresses of one SIMD memory instruction, the
 * coalescer merges accesses falling on the same cache line (one cache
 * access each) and on the same page (one translation each). For
 * regular workloads this collapses a 64-lane instruction to one or two
 * requests; for irregular workloads it barely helps — the effect the
 * paper builds on.
 */

#ifndef GPUWALK_TLB_COALESCER_HH
#define GPUWALK_TLB_COALESCER_HH

#include <cstdint>
#include <vector>

#include "mem/types.hh"

namespace gpuwalk::tlb {

/** Result of coalescing one SIMD instruction's lane addresses. */
struct CoalescedAccess
{
    /** Unique page-aligned virtual addresses (translation requests). */
    std::vector<mem::Addr> pages;

    /** Unique line-aligned virtual addresses (cache accesses). */
    std::vector<mem::Addr> lines;

    /** Index into pages of each line's page (parallel to lines). */
    std::vector<std::uint32_t> linePages;

    /** Active lanes that produced the above. */
    unsigned activeLanes = 0;

    /** Divergence: unique pages per active lane (0..1]. */
    double
    pageDivergence() const
    {
        return activeLanes
                   ? static_cast<double>(pages.size()) / activeLanes
                   : 0.0;
    }
};

/**
 * Coalesces @p lane_addrs. First occurrence order is preserved, which
 * keeps request streams deterministic.
 */
CoalescedAccess coalesce(const std::vector<mem::Addr> &lane_addrs);

} // namespace gpuwalk::tlb

#endif // GPUWALK_TLB_COALESCER_HH

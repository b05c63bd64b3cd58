/**
 * @file
 * A process-like virtual address space for GPU workloads.
 *
 * Workload generators allocate named buffers; the address space lays
 * them out in virtual memory and eagerly maps every page through the
 * shared x86-64 page table. A 4 KB region is mapped in bulk
 * (PageTable::mapRange): the upper levels are walked once per 2 MB,
 * not once per page, but every frame is taken in the same order as
 * page-by-page mapping, so physical addresses do not depend on it.
 * Under the GMMU's demand-paging mode (vm/gmmu.hh) the eager mapping
 * is skipped: regions are laid out but left non-present, and pages
 * fault in on first touch by a walker.
 */

#ifndef GPUWALK_VM_ADDRESS_SPACE_HH
#define GPUWALK_VM_ADDRESS_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "vm/page_table.hh"

namespace gpuwalk::vm {

/** A named, contiguous virtual buffer. */
struct VaRegion
{
    std::string name;
    mem::Addr base = 0;
    mem::Addr bytes = 0;

    mem::Addr end() const { return base + bytes; }
};

/** Virtual address space with eager page-table population. */
class AddressSpace
{
  public:
    /**
     * @param store Functional memory holding the page tables.
     * @param frames Physical allocator shared with the page table.
     * @param base First virtual address handed out.
     */
    AddressSpace(mem::BackingStore &store, FrameAllocator &frames,
                 mem::Addr base = mem::Addr(1) << 32)
        : pageTable_(store, frames), frames_(frames), nextVa_(base)
    {}

    /**
     * Selects the page size used for subsequent allocations. With
     * large pages, regions are 2 MB-aligned and mapped with PS-bit
     * PD-level leaves (the paper's §VI discussion point).
     */
    void
    useLargePages(bool enable)
    {
        GPUWALK_ASSERT(!enable || !demandPaging_,
                       "demand paging excludes eager large pages");
        largePages_ = enable;
    }

    /**
     * Demand-paging mode: allocate() lays out regions without mapping
     * any page; the GMMU maps pages on far faults instead. Large pages
     * are incompatible (2 MB coverage comes from GMMU promotion).
     */
    void
    setDemandPaging(bool enable)
    {
        GPUWALK_ASSERT(!enable || !largePages_,
                       "demand paging excludes eager large pages");
        demandPaging_ = enable;
    }

    /**
     * Allocates @p bytes of virtual memory (rounded up to whole
     * pages — 4 KB or 2 MB depending on the page-size policy) and
     * maps every page to fresh physical frames. 4 KB pages are mapped
     * in one PageTable::mapRange call, which takes each page's frame
     * and then any table frame it needs, the order a per-page map()
     * loop would.
     * @return the region descriptor.
     */
    VaRegion
    allocate(const std::string &name, mem::Addr bytes)
    {
        const mem::Addr granule = largePages_ ? largePageSize
                                              : mem::pageSize;
        nextVa_ = (nextVa_ + granule - 1) & ~(granule - 1);
        const mem::Addr size = (bytes + granule - 1) & ~(granule - 1);
        VaRegion region{name, nextVa_, size};
        // Leave an unmapped guard page between regions so workload bugs
        // surface as translation failures rather than silent overlap.
        nextVa_ += size + granule;

        if (!demandPaging_) {
            // An oversized workload is a configuration error: report
            // the whole mapping's need before anything is mapped.
            const std::uint64_t need =
                frames_.framesInUse() + size / mem::pageSize;
            if (need > frames_.framesTotal()) {
                sim::fatal("the eager ", largePages_ ? "2 MB" : "4 KB",
                           " mapping needs ", need,
                           " 4 KB frames, but physMemBytes (",
                           frames_.framesTotal() * mem::pageSize,
                           " bytes) holds ", frames_.framesTotal());
            }
            if (largePages_) {
                for (mem::Addr va = region.base; va < region.end();
                     va += granule) {
                    pageTable_.mapLarge(va,
                                        frames_.allocateLargeFrame());
                }
            } else {
                pageTable_.mapRange(region.base, size / mem::pageSize);
            }
        }
        regions_.push_back(region);
        return region;
    }

    /**
     * Maps the page containing @p va if it is not mapped yet
     * (honouring the page-size policy). Used when replaying external
     * traces whose regions were never allocated through allocate().
     */
    void
    ensureMapped(mem::Addr va)
    {
        if (pageTable_.translate(va).has_value())
            return;
        if (largePages_) {
            pageTable_.mapLarge(va & ~largePageMask,
                                frames_.allocateLargeFrame());
        } else {
            pageTable_.map(mem::pageAlign(va),
                           frames_.allocateFrame());
        }
    }

    /** The backing page table (shared CPU/GPU table in the paper). */
    PageTable &pageTable() { return pageTable_; }
    const PageTable &pageTable() const { return pageTable_; }

    /** All regions allocated so far. */
    const std::vector<VaRegion> &regions() const { return regions_; }

    /** Total mapped bytes (the workload's memory footprint). */
    mem::Addr
    footprintBytes() const
    {
        mem::Addr total = 0;
        for (const auto &r : regions_)
            total += r.bytes;
        return total;
    }

  private:
    PageTable pageTable_;
    FrameAllocator &frames_;
    mem::Addr nextVa_;
    bool largePages_ = false;
    bool demandPaging_ = false;
    std::vector<VaRegion> regions_;
};

} // namespace gpuwalk::vm

#endif // GPUWALK_VM_ADDRESS_SPACE_HH

/**
 * @file
 * A real 4-level x86-64 page table.
 *
 * Entries are 8-byte words written into the simulator's functional
 * BackingStore, so the IOMMU's page table walkers decode genuine PTE
 * bytes from genuine physical addresses — the walk path is functional
 * as well as timed, and each level's entry address is exactly what a
 * hardware walker would fetch.
 */

#ifndef GPUWALK_VM_PAGE_TABLE_HH
#define GPUWALK_VM_PAGE_TABLE_HH

#include <cstdint>
#include <optional>

#include "mem/backing_store.hh"
#include "mem/types.hh"
#include "vm/frame_allocator.hh"

namespace gpuwalk::vm {

/**
 * Page table levels, numbered as in the paper's four-level radix tree.
 * Level 4 is the root (PML4); level 1 holds leaf PTEs.
 */
enum class PtLevel : unsigned
{
    Pml4 = 4,
    Pdpt = 3,
    Pd = 2,
    Pt = 1,
};

/** Number of radix levels in an x86-64 walk. */
constexpr unsigned numPtLevels = 4;

/** x86-64 PTE bits used by this model. */
namespace pte {
constexpr std::uint64_t present = 1ull << 0;
constexpr std::uint64_t writable = 1ull << 1;
/** PS bit: a PD-level entry maps a 2 MB page directly. */
constexpr std::uint64_t pageSize = 1ull << 7;
constexpr std::uint64_t addrMask = 0x000ffffffffff000ull;
/** Frame mask for a 2 MB leaf. */
constexpr std::uint64_t addrMask2M = 0x000fffffffe00000ull;
} // namespace pte

/** Size and mask of a 2 MB large page. */
constexpr mem::Addr largePageSize = mem::Addr(1) << 21;
constexpr mem::Addr largePageMask = largePageSize - 1;

/**
 * Functionally translates @p va by walking the table rooted at
 * @p root in @p store. Standalone so components that only know a
 * root physical address (e.g., the IOMMU's prefetcher) can probe
 * mappings without owning a PageTable object.
 */
std::optional<mem::Addr> translateFrom(const mem::BackingStore &store,
                                       mem::Addr root, mem::Addr va);

/** An OS-maintained x86-64 four-level page table. */
class PageTable
{
  public:
    /**
     * Creates an empty table: allocates and zeroes the root frame.
     */
    PageTable(mem::BackingStore &store, FrameAllocator &frames);

    /** Physical address of the root (PML4) table. */
    mem::Addr root() const { return root_; }

    /**
     * Maps virtual page @p va -> physical frame @p pa, creating any
     * missing intermediate tables. Both must be page aligned.
     */
    void map(mem::Addr va, mem::Addr pa, bool writable = true);

    /**
     * Maps the @p pages consecutive 4 KB pages from @p va (page
     * aligned), each writable, to fresh frames from the allocator.
     * Frames, table pages and store frames come in exactly the order
     * a loop of map(va, frames.allocateFrame()) takes them: each
     * page's data frame first, then any table frame it needs. The
     * upper levels are walked only when the range enters a new leaf
     * page (its start and each 2 MB boundary), and each leaf is
     * written straight into that page's bytes.
     */
    void mapRange(mem::Addr va, std::uint64_t pages);

    /**
     * Maps a 2 MB large page: the PD-level entry becomes a leaf with
     * the PS bit set (paper §VI discussion). Both addresses must be
     * 2 MB aligned, and the region must not already hold 4 KB
     * mappings.
     */
    void mapLarge(mem::Addr va, mem::Addr pa, bool writable = true);

    /**
     * Removes the 4 KB leaf mapping for page @p va (demand-paging
     * eviction). Intermediate tables are kept: real OSes do not tear
     * down the radix tree per eviction either. @pre the page is mapped
     * with a 4 KB leaf (not a 2 MB PS-bit entry).
     */
    void unmap(mem::Addr va);

    /**
     * Mosaic-style promotion: replaces the PD-level pointer entry for
     * the fully-resident 2 MB range containing @p va with a PS-bit
     * leaf mapping @p pa. The underlying PT page (still holding the
     * 512 4 KB leaves) is kept alive so the promotion can be undone.
     * @return the replaced PD pointer entry, to hand back to
     *         demoteFromLarge().
     */
    std::uint64_t promoteToLarge(mem::Addr va, mem::Addr pa);

    /**
     * Undoes promoteToLarge(): restores @p saved_pd_entry (the PT
     * pointer) at the PD slot for @p va, making the 4 KB leaves
     * authoritative again ahead of an eviction from the range.
     */
    void demoteFromLarge(mem::Addr va, std::uint64_t saved_pd_entry);

    /**
     * Functional translation: returns the physical address for @p va,
     * or nullopt if unmapped. Accepts unaligned addresses.
     */
    std::optional<mem::Addr> translate(mem::Addr va) const;

    /**
     * Physical address of the page-table entry consulted at @p level
     * for @p va, following present entries from the root. Returns
     * nullopt if an upper level is not present yet. Used by the timing
     * walker to know which physical words its memory accesses touch.
     */
    std::optional<mem::Addr> entryAddress(mem::Addr va,
                                          PtLevel level) const;

    /** 9-bit table index of @p va at @p level. */
    static unsigned
    indexAt(mem::Addr va, PtLevel level)
    {
        const unsigned shift =
            12 + 9 * (static_cast<unsigned>(level) - 1);
        return static_cast<unsigned>((va >> shift) & 0x1ff);
    }

    /**
     * Base virtual address of the region covered by the entry used for
     * @p va at @p level (e.g., 2 MB granularity at the PD level).
     * This is the tag granularity of a page walk cache for that level.
     */
    static mem::Addr
    regionBase(mem::Addr va, PtLevel level)
    {
        const unsigned shift =
            12 + 9 * (static_cast<unsigned>(level) - 1);
        return va >> shift << shift;
    }

    /** Number of page-table pages allocated (all levels, incl. root). */
    std::uint64_t tablePages() const { return tablePages_; }

    /** Number of leaf mappings installed. */
    std::uint64_t mappings() const { return mappings_; }

  private:
    /** Reads the entry for @p va at @p level in table page @p table. */
    mem::Addr
    entrySlot(mem::Addr table, mem::Addr va, PtLevel level) const
    {
        return table + std::uint64_t(indexAt(va, level)) * 8;
    }

    /** Ensures the table at @p level below @p slot exists. */
    mem::Addr ensureTable(mem::Addr slot);

    /** Ensures the PDPT, PD and PT pages on @p va's path exist and
     *  returns the bytes of the PT (leaf) page. */
    std::uint8_t *leafTable(mem::Addr va);

    /** Writes @p va's leaf PTE, mapping @p pa, into PT page @p pt. */
    void setLeaf(std::uint8_t *pt, mem::Addr va, mem::Addr pa,
                 bool writable);

    mem::BackingStore &store_;
    FrameAllocator &frames_;
    mem::Addr root_ = 0;
    std::uint64_t tablePages_ = 0;
    std::uint64_t mappings_ = 0;
};

} // namespace gpuwalk::vm

#endif // GPUWALK_VM_PAGE_TABLE_HH

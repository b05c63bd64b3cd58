#include "vm/page_table.hh"

#include <cstring>

namespace gpuwalk::vm {

PageTable::PageTable(mem::BackingStore &store, FrameAllocator &frames)
    : store_(store), frames_(frames)
{
    root_ = frames_.allocateFrame();
    ++tablePages_;
    // Frames from the backing store are zero-filled on first touch, so
    // the fresh root is already all-not-present.
}

mem::Addr
PageTable::ensureTable(mem::Addr slot)
{
    std::uint64_t entry = store_.read64(slot);
    if (entry & pte::present)
        return entry & pte::addrMask;

    mem::Addr table = frames_.allocateFrame();
    ++tablePages_;
    store_.write64(slot, (table & pte::addrMask) | pte::present
                             | pte::writable);
    return table;
}

std::uint8_t *
PageTable::leafTable(mem::Addr va)
{
    mem::Addr table = root_;
    for (unsigned l = numPtLevels; l > 1; --l)
        table = ensureTable(entrySlot(table, va, PtLevel{l}));
    return store_.frameBytes(table);
}

void
PageTable::setLeaf(std::uint8_t *pt, mem::Addr va, mem::Addr pa,
                   bool writable)
{
    std::uint64_t leaf = (pa & pte::addrMask) | pte::present;
    if (writable)
        leaf |= pte::writable;
    std::uint8_t *slot = pt + std::uint64_t(indexAt(va, PtLevel::Pt)) * 8;
    std::uint64_t old = 0;
    std::memcpy(&old, slot, sizeof old);
    if ((old & pte::present) == 0)
        ++mappings_;
    std::memcpy(slot, &leaf, sizeof leaf);
}

void
PageTable::map(mem::Addr va, mem::Addr pa, bool writable)
{
    GPUWALK_ASSERT((va & (mem::pageSize - 1)) == 0, "unaligned va ", va);
    GPUWALK_ASSERT((pa & (mem::pageSize - 1)) == 0, "unaligned pa ", pa);
    setLeaf(leafTable(va), va, pa, writable);
}

void
PageTable::mapRange(mem::Addr va, std::uint64_t pages)
{
    GPUWALK_ASSERT((va & (mem::pageSize - 1)) == 0, "unaligned va ", va);
    std::uint8_t *pt = nullptr;
    for (std::uint64_t i = 0; i < pages; ++i, va += mem::pageSize) {
        const mem::Addr pa = frames_.allocateFrame();
        if (pt == nullptr || indexAt(va, PtLevel::Pt) == 0)
            pt = leafTable(va);
        setLeaf(pt, va, pa, true);
    }
}

void
PageTable::mapLarge(mem::Addr va, mem::Addr pa, bool writable)
{
    GPUWALK_ASSERT((va & largePageMask) == 0, "unaligned 2MB va ", va);
    GPUWALK_ASSERT((pa & largePageMask) == 0, "unaligned 2MB pa ", pa);

    mem::Addr pdpt = ensureTable(entrySlot(root_, va, PtLevel::Pml4));
    mem::Addr pd = ensureTable(entrySlot(pdpt, va, PtLevel::Pdpt));

    const mem::Addr slot = entrySlot(pd, va, PtLevel::Pd);
    const std::uint64_t old = store_.read64(slot);
    GPUWALK_ASSERT(!(old & pte::present) || (old & pte::pageSize),
                   "2MB mapping over existing 4KB subtree at ", va);

    std::uint64_t leaf =
        (pa & pte::addrMask2M) | pte::present | pte::pageSize;
    if (writable)
        leaf |= pte::writable;
    if (!(old & pte::present))
        ++mappings_;
    store_.write64(slot, leaf);
}

void
PageTable::unmap(mem::Addr va)
{
    GPUWALK_ASSERT((va & (mem::pageSize - 1)) == 0, "unaligned va ", va);
    const auto slot = entryAddress(va, PtLevel::Pt);
    GPUWALK_ASSERT(slot.has_value(),
                   "unmap of va ", va, " without a PT level");
    const std::uint64_t leaf = store_.read64(*slot);
    GPUWALK_ASSERT(leaf & pte::present, "unmap of non-present va ", va);
    store_.write64(*slot, 0);
    --mappings_;
}

std::uint64_t
PageTable::promoteToLarge(mem::Addr va, mem::Addr pa)
{
    GPUWALK_ASSERT((pa & largePageMask) == 0, "unaligned 2MB pa ", pa);
    const mem::Addr base = va & ~largePageMask;
    const auto slot = entryAddress(base, PtLevel::Pd);
    GPUWALK_ASSERT(slot.has_value(),
                   "promotion of va ", va, " without a PD level");
    const std::uint64_t old = store_.read64(*slot);
    GPUWALK_ASSERT((old & pte::present) && !(old & pte::pageSize),
                   "promotion needs a present PT pointer at ", base);
    store_.write64(*slot, (pa & pte::addrMask2M) | pte::present
                              | pte::writable | pte::pageSize);
    return old;
}

void
PageTable::demoteFromLarge(mem::Addr va, std::uint64_t saved_pd_entry)
{
    const mem::Addr base = va & ~largePageMask;
    // entryAddress() stops at a PS-bit leaf, so locate the PD slot by
    // walking the upper two levels directly.
    mem::Addr table = root_;
    for (unsigned l = numPtLevels; l > 2; --l) {
        const std::uint64_t entry =
            store_.read64(entrySlot(table, base, PtLevel{l}));
        GPUWALK_ASSERT(entry & pte::present,
                       "demotion of va ", va, " without upper levels");
        table = entry & pte::addrMask;
    }
    const mem::Addr slot = entrySlot(table, base, PtLevel::Pd);
    const std::uint64_t old = store_.read64(slot);
    GPUWALK_ASSERT((old & pte::present) && (old & pte::pageSize),
                   "demotion of a non-promoted range at ", base);
    GPUWALK_ASSERT((saved_pd_entry & pte::present)
                       && !(saved_pd_entry & pte::pageSize),
                   "demotion needs the saved PT pointer for ", base);
    store_.write64(slot, saved_pd_entry);
}

std::optional<mem::Addr>
translateFrom(const mem::BackingStore &store, mem::Addr root,
              mem::Addr va)
{
    mem::Addr table = root;
    for (unsigned level = numPtLevels; level >= 1; --level) {
        const mem::Addr slot =
            table + std::uint64_t(PageTable::indexAt(va,
                                                     PtLevel{level}))
                        * 8;
        const std::uint64_t entry = store.read64(slot);
        if (!(entry & pte::present))
            return std::nullopt;
        if (level == 2 && (entry & pte::pageSize)) {
            // 2 MB leaf at the PD level.
            return (entry & pte::addrMask2M) | (va & largePageMask);
        }
        table = entry & pte::addrMask;
    }
    return table | (va & (mem::pageSize - 1));
}

std::optional<mem::Addr>
PageTable::translate(mem::Addr va) const
{
    return translateFrom(store_, root_, va);
}

std::optional<mem::Addr>
PageTable::entryAddress(mem::Addr va, PtLevel level) const
{
    mem::Addr table = root_;
    for (unsigned l = numPtLevels; l > static_cast<unsigned>(level); --l) {
        const std::uint64_t entry =
            store_.read64(entrySlot(table, va, PtLevel{l}));
        if (!(entry & pte::present))
            return std::nullopt;
        if (l == 2 && (entry & pte::pageSize))
            return std::nullopt; // 2MB leaf: no deeper level exists
        table = entry & pte::addrMask;
    }
    return entrySlot(table, va, level);
}

} // namespace gpuwalk::vm

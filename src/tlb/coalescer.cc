#include "tlb/coalescer.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

namespace gpuwalk::tlb {

namespace {

/**
 * Open-addressing set of page- or line-aligned addresses over
 * caller-provided slots (a power-of-two count, at most half full).
 * The empty marker is not aligned, so it never equals a real key.
 */
class AlignedSet
{
  public:
    AlignedSet(mem::Addr *slots, std::size_t count)
        : slots_(slots), mask_(count - 1),
          shift_(64 - static_cast<unsigned>(std::countr_zero(count)))
    {
        std::fill(slots_, slots_ + count, empty);
    }

    /** @return true if @p a was not yet a member. */
    bool insert(mem::Addr a) { return insertAt(a).second; }

    /**
     * Inserts @p a. @return its slot (stable while the set lives)
     * and whether it was not yet a member.
     */
    std::pair<std::size_t, bool>
    insertAt(mem::Addr a)
    {
        std::size_t i = static_cast<std::size_t>(
            (a * 0x9e3779b97f4a7c15ull) >> shift_);
        while (slots_[i] != empty) {
            if (slots_[i] == a)
                return {i, false};
            i = (i + 1) & mask_;
        }
        slots_[i] = a;
        return {i, true};
    }

  private:
    static constexpr mem::Addr empty = ~mem::Addr{0};

    mem::Addr *slots_;
    std::size_t mask_;
    unsigned shift_;
};

/** Slots per set kept on the stack: a 64-lane wavefront at half load;
 *  only wider lane vectors spill to the heap. */
constexpr std::size_t stackSlots = 128;

} // namespace

CoalescedAccess
coalesce(const std::vector<mem::Addr> &lane_addrs)
{
    CoalescedAccess out;
    out.activeLanes = static_cast<unsigned>(lane_addrs.size());
    out.pages.reserve(lane_addrs.size());
    out.lines.reserve(lane_addrs.size());
    out.linePages.reserve(lane_addrs.size());

    const std::size_t slots =
        std::max<std::size_t>(2, std::bit_ceil(2 * lane_addrs.size()));
    std::array<mem::Addr, 2 * stackSlots> local;
    std::array<std::uint32_t, stackSlots> localIndex;
    std::vector<mem::Addr> spill;
    std::vector<std::uint32_t> spillIndex;
    mem::Addr *storage = local.data();
    std::uint32_t *pageIndex = localIndex.data();
    if (slots > stackSlots) {
        spill.resize(2 * slots);
        spillIndex.resize(slots);
        storage = spill.data();
        pageIndex = spillIndex.data();
    }
    AlignedSet pages(storage, slots);
    AlignedSet lines(storage + slots, slots);

    // First-appearance order is the request order downstream. A
    // page's slot in its set remembers the page's index in out.pages.
    for (mem::Addr a : lane_addrs) {
        const mem::Addr page = mem::pageAlign(a);
        const auto [pageSlot, newPage] = pages.insertAt(page);
        if (newPage) {
            pageIndex[pageSlot] =
                static_cast<std::uint32_t>(out.pages.size());
            out.pages.push_back(page);
        }
        const mem::Addr line = mem::lineAlign(a);
        if (lines.insert(line)) {
            out.lines.push_back(line);
            out.linePages.push_back(pageIndex[pageSlot]);
        }
    }
    return out;
}

} // namespace gpuwalk::tlb

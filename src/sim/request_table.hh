/**
 * @file
 * Pooled in-flight requests that complete by route.
 *
 * A request (a translation, a memory access) lives in a RequestTable
 * slot from issue to final completion and travels as its 32-bit
 * Handle. Instead of carrying a completion closure, each request
 * carries a Route: the registered sink (the component that issued it
 * and waits for it), a kind the sink switches on, and a tag naming
 * the sink's own record (an instruction slot, an MSHR, a merge
 * entry). Completing a request releases its slot and hands the route
 * to the sink — the slot is released exactly once, at its final
 * completion, and a stale handle panics (sim/slot_table.hh).
 *
 * Requests with a None route (writebacks, fault-injection phantoms,
 * prefetch walks) have no sink: completing them only frees the slot.
 *
 * The table counts its live slots per sink, so its slot audit can
 * compare them with what each sink believes it has in flight, and
 * demand zero live slots at drain.
 */

#ifndef GPUWALK_SIM_REQUEST_TABLE_HH
#define GPUWALK_SIM_REQUEST_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/audit.hh"
#include "sim/logging.hh"
#include "sim/slot_table.hh"

namespace gpuwalk::sim {

/** Sink id of a route nobody answers. */
inline constexpr std::uint16_t noSink = 0xFFFF;

/** Where a request's completion goes. @p Kind must have a None. */
template <typename Kind>
struct Route
{
    Kind kind = Kind::None;
    std::uint16_t sink = noSink; ///< id from RequestTable::attach()
    std::uint32_t tag = 0;       ///< the sink's own record
};

/**
 * Slot table of @p Request records, each paired with its Route to a
 * registered @p Sink. The concrete tables (tlb::TranslationTable,
 * mem::MemoryTable) add the typed complete() that calls the sink.
 */
template <typename Request, typename Kind, typename Sink>
class RequestTable
{
  public:
    using RouteType = Route<Kind>;

    RequestTable() = default;
    RequestTable(const RequestTable &) = delete;
    RequestTable &operator=(const RequestTable &) = delete;

    /** Registers @p sink; routes name it by the returned id. */
    std::uint16_t
    attach(Sink &sink)
    {
        GPUWALK_ASSERT(sinks_.size() < noSink, "too many route sinks");
        sinks_.push_back(&sink);
        liveBySink_.push_back(0);
        return static_cast<std::uint16_t>(sinks_.size() - 1);
    }

    /** Takes a slot holding a fresh Request, routed to @p route. */
    Handle
    acquire(RouteType route = {})
    {
        checkRoute(route);
        const Handle h = slots_.acquire();
        Entry &e = slots_.at(h);
        e.request = Request{};
        e.route = route;
        count(route, +1);
        return h;
    }

    /** The request @p h names. Panics on a stale handle. */
    Request &at(Handle h) { return slots_.at(h).request; }
    const Request &at(Handle h) const { return slots_.at(h).request; }

    /** Redirects @p h's completion (fault injection swallows it). */
    void
    reroute(Handle h, RouteType route)
    {
        checkRoute(route);
        Entry &e = slots_.at(h);
        count(e.route, -1);
        e.route = route;
        count(route, +1);
    }

    /** Frees the unrouted request @p h (dropped or done): nobody is
     *  told. Panics if @p h is stale or routed to a sink. */
    void
    release(Handle h)
    {
        const RouteType route = retire(h);
        GPUWALK_ASSERT(route.sink == noSink,
                       "releasing a routed request without completing it");
    }

    /** Live requests. */
    std::size_t live() const { return slots_.live(); }

    /** Live requests routed to sink @p id. */
    std::size_t liveRoutedTo(std::uint16_t id) const
    {
        return liveBySink_.at(id);
    }

    /** The sink registered as @p id. */
    Sink &sink(std::uint16_t id) { return *sinks_[id]; }

    /**
     * Registers the slot audit as @p name: every sink's own count of
     * requests in flight (@p in_flight) equals the live slots routed
     * to it, and no slot is live at drain.
     */
    void
    registerInvariant(Auditor &auditor, std::string name,
                      std::size_t (Sink::*in_flight)() const)
    {
        auditor.registerInvariant(
            std::move(name), [this, in_flight](AuditContext &ctx) {
                for (std::size_t id = 0; id < sinks_.size(); ++id) {
                    const std::size_t held = (sinks_[id]->*in_flight)();
                    if (!ctx.require(held == liveBySink_[id], "sink ", id,
                                     " has ", held,
                                     " requests in flight but ",
                                     liveBySink_[id],
                                     " live slots route to it"))
                        return;
                }
                if (ctx.final()) {
                    ctx.require(live() == 0, live(),
                                " request slots still live at drain");
                }
            });
    }

  protected:
    /**
     * Releases @p h — its final completion — and returns the route the
     * caller dispatches. Panics if @p h is stale.
     */
    RouteType
    retire(Handle h)
    {
        const RouteType route = slots_.at(h).route;
        count(route, -1);
        slots_.release(h);
        return route;
    }

  private:
    struct Entry
    {
        Request request;
        RouteType route;
    };

    void
    checkRoute(const RouteType &route) const
    {
        GPUWALK_ASSERT((route.kind == Kind::None) == (route.sink == noSink)
                           && (route.sink == noSink
                               || route.sink < sinks_.size()),
                       "malformed request route (sink ", route.sink, ")");
    }

    void
    count(const RouteType &route, int delta)
    {
        if (route.sink == noSink)
            return;
        if (delta > 0)
            ++liveBySink_[route.sink];
        else
            --liveBySink_[route.sink];
    }

    SlotTable<Entry> slots_;
    std::vector<Sink *> sinks_;
    std::vector<std::size_t> liveBySink_;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_REQUEST_TABLE_HH

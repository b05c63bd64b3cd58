/**
 * @file
 * Test-side route owners: issue requests into a request table and run
 * a per-request callback when each one completes.
 *
 * Components answer requests through the route each request carries;
 * these sinks let a test own requests the same way a CU or a cache
 * does, while keeping the test's completion logic next to the request
 * it issues. Each sink counts what it has in flight, so the tables'
 * slot audits cover test-issued requests too. WalkCallbacks plays the
 * IOMMU's part for a stand-alone page table walker.
 */

#ifndef GPUWALK_TESTS_REQUEST_SINKS_HH
#define GPUWALK_TESTS_REQUEST_SINKS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "iommu/page_table_walker.hh"
#include "mem/request.hh"
#include "tlb/translation.hh"

namespace gpuwalk::test {

/** Owns translation requests routed back to per-request callbacks. */
class TranslationCallbacks final : public tlb::TranslationSink
{
  public:
    using Callback = std::function<void(mem::Addr pa_page, bool large)>;

    explicit TranslationCallbacks(tlb::TranslationTable &table)
        : table_(table), id_(table.attach(*this))
    {}

    /** A request with @p fields, routed here; @p done runs when it
     *  completes (may be empty). */
    tlb::RequestHandle
    issue(const tlb::TranslationRequest &fields, Callback done = {})
    {
        const auto tag = static_cast<std::uint32_t>(callbacks_.size());
        callbacks_.push_back(std::move(done));
        ++inFlight_;
        const tlb::RequestHandle h =
            table_.acquire({tlb::TranslationRouteKind::Cu, id_, tag});
        table_.at(h) = fields;
        return h;
    }

    void
    translated(const tlb::TranslationRoute &route, mem::Addr pa_page,
               bool large_page) override
    {
        --inFlight_;
        ++completed;
        Callback done = std::move(callbacks_.at(route.tag));
        if (done)
            done(pa_page, large_page);
    }

    std::size_t translationsInFlight() const override { return inFlight_; }

    /** Requests that completed so far. */
    std::uint64_t completed = 0;

  private:
    tlb::TranslationTable &table_;
    std::uint16_t id_;
    std::vector<Callback> callbacks_;
    std::size_t inFlight_ = 0;
};

/** Owns memory requests routed back to per-request callbacks. */
class MemoryCallbacks final : public mem::MemorySink
{
  public:
    using Callback = std::function<void()>;

    explicit MemoryCallbacks(mem::MemoryTable &table)
        : table_(table), id_(table.attach(*this))
    {}

    /** A request with @p fields, routed here; @p done runs when it
     *  completes (may be empty). */
    mem::RequestHandle
    issue(const mem::MemoryRequest &fields, Callback done = {})
    {
        const auto tag = static_cast<std::uint32_t>(callbacks_.size());
        callbacks_.push_back(std::move(done));
        ++inFlight_;
        const mem::RequestHandle h =
            table_.acquire({mem::MemoryRouteKind::CuLine, id_, tag});
        table_.at(h) = fields;
        return h;
    }

    /** A request at @p addr (a read unless @p write). */
    mem::RequestHandle
    issue(mem::Addr addr, bool write, Callback done = {})
    {
        mem::MemoryRequest fields;
        fields.addr = addr;
        fields.write = write;
        return issue(fields, std::move(done));
    }

    void
    memoryDone(const mem::MemoryRoute &route) override
    {
        --inFlight_;
        ++completed;
        Callback done = std::move(callbacks_.at(route.tag));
        if (done)
            done();
    }

    std::size_t memoryInFlight() const override { return inFlight_; }

    /** Requests that completed so far. */
    std::uint64_t completed = 0;

  private:
    mem::MemoryTable &table_;
    std::uint16_t id_;
    std::vector<Callback> callbacks_;
    std::size_t inFlight_ = 0;
};

/** A walker owner handing each finished walk to a callback. */
class WalkCallbacks final : public iommu::WalkOwner
{
  public:
    using Callback = std::function<void(iommu::WalkResult)>;

    void
    walkDone(iommu::WalkResult &result) override
    {
        if (onDone)
            onDone(result);
    }

    /** Runs for every finished walk (may be empty). */
    Callback onDone;
};

} // namespace gpuwalk::test

#endif // GPUWALK_TESTS_REQUEST_SINKS_HH

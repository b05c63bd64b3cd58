/**
 * @file
 * Plugging a user-defined page-walk scheduler into the system.
 *
 * The paper closes by noting the rich design space of walk scheduling
 * policies (akin to memory-controller scheduling). This example
 * implements one such follow-on idea — a CU-fairness scheduler that
 * round-robins service across compute units (a QoS-flavoured policy,
 * cf. the paper's §VI discussion) — and compares it against FCFS and
 * the paper's SIMT-aware scheduler on an irregular workload.
 */

#include <array>
#include <iostream>

#include "core/walk_scheduler.hh"
#include "exp/metrics.hh"
#include "exp/run.hh"
#include "exp/table.hh"

using namespace gpuwalk;

namespace {

/**
 * Round-robin across CUs; FCFS within a CU. Guarantees no compute
 * unit's walks starve behind another's bursts.
 */
class CuFairScheduler : public core::WalkScheduler
{
  public:
    std::string name() const override { return "cu-fair"; }

    std::size_t
    selectNext(const core::WalkBuffer &buffer) override
    {
        const auto &entries = buffer.entries();
        // Find, for the next CUs in round-robin order, the oldest
        // pending request; fall back to global FCFS if a CU is idle.
        for (unsigned probe = 0; probe < maxCus; ++probe) {
            const unsigned cu = (lastCu_ + 1 + probe) % maxCus;
            std::size_t best = entries.size();
            for (std::size_t i = 0; i < entries.size(); ++i) {
                if (entries[i].cu != cu)
                    continue;
                if (best == entries.size()
                    || entries[i].seq < entries[best].seq) {
                    best = i;
                }
            }
            if (best != entries.size())
                return best;
        }
        return buffer.oldestIndex();
    }

    void
    onDispatch(core::WalkBuffer &buffer,
               const core::PendingWalk &walk) override
    {
        lastCu_ = walk.cu;
        WalkScheduler::onDispatch(buffer, walk);
    }

  private:
    static constexpr unsigned maxCus = 8;
    unsigned lastCu_ = 0;
};

double
timeWith(const std::string &label,
         std::function<std::unique_ptr<core::WalkScheduler>()> factory,
         core::SchedulerKind kind, bool use_factory)
{
    auto cfg = system::SystemConfig::baseline();
    if (use_factory)
        cfg.schedulerFactory = std::move(factory);
    else
        cfg.scheduler = kind;

    system::System sys(cfg);
    auto params = exp::experimentParams();
    params.footprintScale = 0.25; // keep the example snappy
    sys.loadBenchmark("ATX", params);
    const auto stats = sys.run();
    std::cout << "  " << label << ": "
              << stats.runtimeTicks / 500 << " GPU cycles, "
              << stats.walkRequests << " walks\n";
    return static_cast<double>(stats.runtimeTicks);
}

} // namespace

int
main()
{
    std::cout << "Custom walk-scheduler example (workload: ATX)\n"
              << "---------------------------------------------\n";

    const double fcfs =
        timeWith("fcfs      ", nullptr, core::SchedulerKind::Fcfs,
                 false);
    const double fair = timeWith(
        "cu-fair   ", [] { return std::make_unique<CuFairScheduler>(); },
        core::SchedulerKind::Fcfs, true);
    const double simt =
        timeWith("simt-aware", nullptr, core::SchedulerKind::SimtAware,
                 false);

    std::cout << "\nspeedup over FCFS:\n"
              << "  cu-fair:    "
              << exp::TablePrinter::fmt(fcfs / fair) << "\n"
              << "  simt-aware: "
              << exp::TablePrinter::fmt(fcfs / simt) << "\n"
              << "\nWrite your own core::WalkScheduler and set\n"
                 "SystemConfig::schedulerFactory to explore the design "
                 "space the paper opens.\n";
    return 0;
}

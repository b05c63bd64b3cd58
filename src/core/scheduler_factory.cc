#include "core/walk_scheduler.hh"

#include "core/fcfs_scheduler.hh"
#include "core/random_scheduler.hh"
#include "core/simt_aware_scheduler.hh"
#include "core/weighted_share_scheduler.hh"
#include "sim/logging.hh"

namespace gpuwalk::core {

std::string
toString(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Fcfs:
        return "fcfs";
      case SchedulerKind::Random:
        return "random";
      case SchedulerKind::SjfOnly:
        return "sjf-only";
      case SchedulerKind::BatchOnly:
        return "batch-only";
      case SchedulerKind::SimtAware:
        return "simt-aware";
      case SchedulerKind::WeightedShare:
        return "weighted-share";
    }
    sim::panic("unknown SchedulerKind");
}

const char *
toString(PickReason reason)
{
    switch (reason) {
      case PickReason::Immediate:
        return "immediate";
      case PickReason::Policy:
        return "policy";
      case PickReason::Batch:
        return "batch";
      case PickReason::Sjf:
        return "sjf";
      case PickReason::Aging:
        return "aging";
    }
    sim::panic("unknown PickReason");
}

SchedulerKind
schedulerKindFromString(const std::string &name)
{
    if (name == "fcfs")
        return SchedulerKind::Fcfs;
    if (name == "random")
        return SchedulerKind::Random;
    if (name == "sjf-only" || name == "sjf")
        return SchedulerKind::SjfOnly;
    if (name == "batch-only" || name == "batch")
        return SchedulerKind::BatchOnly;
    if (name == "simt-aware" || name == "simt")
        return SchedulerKind::SimtAware;
    if (name == "weighted-share" || name == "wfq")
        return SchedulerKind::WeightedShare;
    sim::fatal("unknown scheduler '", name,
               "' (expected fcfs|random|sjf-only|batch-only|"
               "simt-aware|weighted-share)");
}

std::unique_ptr<WalkScheduler>
makeScheduler(SchedulerKind kind, std::uint64_t seed,
              const SimtSchedulerConfig &cfg,
              const QosSchedulerConfig &qos)
{
    switch (kind) {
      case SchedulerKind::Fcfs:
        return std::make_unique<FcfsScheduler>();
      case SchedulerKind::Random:
        return std::make_unique<RandomScheduler>(seed);
      case SchedulerKind::SjfOnly:
      case SchedulerKind::BatchOnly:
      case SchedulerKind::SimtAware:
        return std::make_unique<SimtAwareScheduler>(kind, cfg);
      case SchedulerKind::WeightedShare:
        return std::make_unique<WeightedShareScheduler>(cfg, qos);
    }
    sim::panic("unknown SchedulerKind");
}

} // namespace gpuwalk::core

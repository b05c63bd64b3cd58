#include "trace/trace.hh"

namespace gpuwalk::trace {

const char *
toString(EventKind kind)
{
    switch (kind) {
    case EventKind::Coalesced: return "coalesced";
    case EventKind::Enqueued: return "enqueued";
    case EventKind::Scored: return "scored";
    case EventKind::Scheduled: return "scheduled";
    case EventKind::MemIssued: return "mem_issued";
    case EventKind::MemCompleted: return "mem_completed";
    case EventKind::WalkDone: return "walk_done";
    case EventKind::FaultRaised: return "fault_raised";
    case EventKind::FaultServiced: return "fault_serviced";
    case EventKind::PrefetchIssued: return "prefetch_issued";
    case EventKind::PrefetchUseful: return "prefetch_useful";
    }
    return "unknown";
}

} // namespace gpuwalk::trace

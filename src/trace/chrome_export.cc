#include "trace/chrome_export.hh"

#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "sim/logging.hh"

namespace gpuwalk::trace {

namespace {

/** Thread-row layout inside the single "gpuwalk" process. */
constexpr unsigned tidTlb = 0;     ///< GPU TLB instants
constexpr unsigned tidBuffer = 1;  ///< IOMMU buffer (queue spans)
constexpr unsigned tidWalkerBase = 100;

/** Streams one trace event object, managing the leading comma. */
class EventWriter
{
  public:
    explicit EventWriter(std::ostream &os) : os_(os) {}

    std::ostream &
    next()
    {
        os_ << (first_ ? "\n" : ",\n");
        first_ = false;
        return os_;
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

void
writeMeta(EventWriter &w, unsigned tid, const std::string &name)
{
    w.next() << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
             << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
             << name << "\"}}";
}

void
writeCommonArgs(std::ostream &os, const Event &ev)
{
    os << "\"instruction\":" << ev.instruction << ",\"wavefront\":"
       << ev.wavefront << ",\"va_page\":" << ev.vaPage;
}

} // namespace

void
writeChromeTrace(std::ostream &os, const Tracer &tracer)
{
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
       << "\"tick_note\":\"ts/dur are simulator ticks; "
       << "500 ticks = 1 GPU cycle\",\"events_recorded\":"
       << tracer.recorded() << ",\"events_dropped\":"
       << tracer.dropped() << "},\"traceEvents\":[";

    EventWriter w(os);
    w.next() << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
             << "\"args\":{\"name\":\"gpuwalk\"}}";
    writeMeta(w, tidTlb, "gpu_tlb");
    writeMeta(w, tidBuffer, "iommu_buffer");

    // Async-span ids for queue waits: assigned at Enqueued, matched at
    // Scheduled. Keyed by (instruction, vaPage) — unique per in-flight
    // walk (the coalescer and TLB-MSHR merging guarantee one walk per
    // instruction/page pair at a time).
    std::map<std::pair<std::uint64_t, mem::Addr>, std::uint64_t>
        queueIds;
    std::uint64_t nextId = 1;
    std::set<std::uint32_t> walkersSeen;

    tracer.forEach([&](const Event &ev) {
        const auto key = std::make_pair(ev.instruction, ev.vaPage);
        switch (ev.kind) {
        case EventKind::Coalesced:
            w.next() << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << tidTlb
                     << ",\"ts\":" << ev.tick
                     << ",\"name\":\"coalesce\",\"s\":\"t\","
                     << "\"args\":{";
            writeCommonArgs(os, ev);
            os << "}}";
            break;
        case EventKind::Enqueued: {
            const std::uint64_t id = nextId++;
            queueIds[key] = id;
            w.next() << "{\"ph\":\"b\",\"pid\":0,\"tid\":" << tidBuffer
                     << ",\"ts\":" << ev.tick
                     << ",\"cat\":\"queue\",\"id\":" << id
                     << ",\"name\":\"queued\",\"args\":{";
            writeCommonArgs(os, ev);
            os << ",\"buffer_depth\":" << ev.arg0 << "}}";
            break;
        }
        case EventKind::Scored:
            w.next() << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << tidBuffer
                     << ",\"ts\":" << ev.tick
                     << ",\"name\":\"score\",\"s\":\"t\",\"args\":{";
            writeCommonArgs(os, ev);
            os << ",\"estimate\":" << ev.arg0 << ",\"score\":"
               << ev.arg1 << "}}";
            break;
        case EventKind::Scheduled: {
            const auto it = queueIds.find(key);
            if (it != queueIds.end()) {
                w.next() << "{\"ph\":\"e\",\"pid\":0,\"tid\":"
                         << tidBuffer << ",\"ts\":" << ev.tick
                         << ",\"cat\":\"queue\",\"id\":" << it->second
                         << ",\"name\":\"queued\"}";
                queueIds.erase(it);
            }
            break;
        }
        case EventKind::MemIssued:
            break; // the MemCompleted event carries the full span
        case EventKind::MemCompleted:
            walkersSeen.insert(ev.walker);
            w.next() << "{\"ph\":\"X\",\"pid\":0,\"tid\":"
                     << tidWalkerBase + ev.walker << ",\"ts\":"
                     << ev.tick - ev.arg0 << ",\"dur\":" << ev.arg0
                     << ",\"name\":\"L" << unsigned(ev.level)
                     << "\",\"args\":{";
            writeCommonArgs(os, ev);
            os << "}}";
            break;
        case EventKind::WalkDone:
            walkersSeen.insert(ev.walker);
            w.next() << "{\"ph\":\"X\",\"pid\":0,\"tid\":"
                     << tidWalkerBase + ev.walker << ",\"ts\":"
                     << ev.tick - ev.arg1 << ",\"dur\":" << ev.arg1
                     << ",\"name\":\"walk\",\"args\":{";
            writeCommonArgs(os, ev);
            os << ",\"accesses\":" << ev.arg0 << "}}";
            break;
        case EventKind::FaultRaised:
            w.next() << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << tidBuffer
                     << ",\"ts\":" << ev.tick
                     << ",\"name\":\"fault_raised\",\"s\":\"t\","
                     << "\"args\":{";
            writeCommonArgs(os, ev);
            os << ",\"level\":" << unsigned(ev.level)
               << ",\"parked\":" << ev.arg0 << "}}";
            break;
        case EventKind::FaultServiced:
            // The raise-to-service window renders as a span ending at
            // the service tick; arg1 carries its duration.
            w.next() << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tidBuffer
                     << ",\"ts\":" << ev.tick - ev.arg1 << ",\"dur\":"
                     << ev.arg1 << ",\"name\":\"fault\",\"args\":{";
            writeCommonArgs(os, ev);
            os << ",\"released\":" << ev.arg0 << "}}";
            break;
        case EventKind::PrefetchIssued:
            walkersSeen.insert(ev.walker);
            w.next() << "{\"ph\":\"i\",\"pid\":0,\"tid\":"
                     << tidWalkerBase + ev.walker << ",\"ts\":"
                     << ev.tick << ",\"name\":\"prefetch_issued\","
                     << "\"s\":\"t\",\"args\":{";
            writeCommonArgs(os, ev);
            os << ",\"confidence_permille\":" << ev.arg0
               << ",\"trigger_page\":" << ev.arg1 << "}}";
            break;
        case EventKind::PrefetchUseful:
            w.next() << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << tidTlb
                     << ",\"ts\":" << ev.tick
                     << ",\"name\":\"prefetch_useful\",\"s\":\"t\","
                     << "\"args\":{";
            writeCommonArgs(os, ev);
            os << "}}";
            break;
        }
    });

    for (const auto walker : walkersSeen)
        writeMeta(w, tidWalkerBase + walker,
                  "walker " + std::to_string(walker));

    os << "\n]}\n";
}

void
writeChromeTraceFile(const std::string &path, const Tracer &tracer)
{
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open '", path, "' for trace output");
    writeChromeTrace(os, tracer);
}

} // namespace gpuwalk::trace

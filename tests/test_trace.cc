/**
 * @file
 * Unit tests for the walk-lifecycle tracing subsystem (src/trace/):
 * the bounded ring buffer, the FNV-1a golden digest, the Chrome
 * trace_event exporter, and the sweep runner's per-run file naming.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "exp/run.hh"
#include "exp/sweep.hh"
#include "trace/chrome_export.hh"
#include "trace/digest.hh"
#include "trace/trace.hh"

namespace {

using namespace gpuwalk;
using namespace gpuwalk::trace;

Event
makeEvent(sim::Tick tick, EventKind kind, std::uint64_t instruction,
          mem::Addr va_page)
{
    Event ev;
    ev.tick = tick;
    ev.kind = kind;
    ev.instruction = instruction;
    ev.vaPage = va_page;
    return ev;
}

// --- Ring buffer ---------------------------------------------------

TEST(TracerRing, RetainsEverythingBelowCapacity)
{
    TraceConfig cfg;
    cfg.ringCapacity = 8;
    Tracer t(cfg);
    for (sim::Tick i = 0; i < 5; ++i)
        t.record(makeEvent(i, EventKind::Enqueued, i, i << 12));

    EXPECT_EQ(t.size(), 5u);
    EXPECT_EQ(t.recorded(), 5u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.capacity(), 8u);

    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (sim::Tick i = 0; i < 5; ++i)
        EXPECT_EQ(events[i].tick, i);
}

TEST(TracerRing, DropsOldestWhenFull)
{
    TraceConfig cfg;
    cfg.ringCapacity = 4;
    Tracer t(cfg);
    for (sim::Tick i = 0; i < 10; ++i)
        t.record(makeEvent(i, EventKind::Enqueued, i, i << 12));

    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);

    // The retained window is the newest four, oldest first.
    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().tick, 6u);
    EXPECT_EQ(events.back().tick, 9u);
}

TEST(TracerRing, ClearResetsCountersAndWindow)
{
    TraceConfig cfg;
    cfg.ringCapacity = 4;
    Tracer t(cfg);
    for (sim::Tick i = 0; i < 9; ++i)
        t.record(makeEvent(i, EventKind::Enqueued, 0, 0));
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    t.record(makeEvent(42, EventKind::WalkDone, 0, 0));
    ASSERT_EQ(t.snapshot().size(), 1u);
    EXPECT_EQ(t.snapshot()[0].tick, 42u);
}

TEST(TracerRing, EventKindNamesAreStable)
{
    EXPECT_STREQ(toString(EventKind::Coalesced), "coalesced");
    EXPECT_STREQ(toString(EventKind::Enqueued), "enqueued");
    EXPECT_STREQ(toString(EventKind::Scored), "scored");
    EXPECT_STREQ(toString(EventKind::Scheduled), "scheduled");
    EXPECT_STREQ(toString(EventKind::MemIssued), "mem_issued");
    EXPECT_STREQ(toString(EventKind::MemCompleted), "mem_completed");
    EXPECT_STREQ(toString(EventKind::WalkDone), "walk_done");
}

// --- Digest --------------------------------------------------------

TEST(TraceDigest, IdenticalStreamsDigestEqually)
{
    Tracer a, b;
    for (sim::Tick i = 0; i < 100; ++i) {
        const auto ev = makeEvent(i, EventKind::Enqueued, i % 7,
                                  (i % 13) << 12);
        a.record(ev);
        b.record(ev);
    }
    EXPECT_EQ(digest(a), digest(b));
    EXPECT_NE(digest(a), 0u);
}

TEST(TraceDigest, EveryFieldPerturbsTheDigest)
{
    auto base = makeEvent(10, EventKind::Scheduled, 3, 0x4000);
    base.level = 2;
    base.walker = 5;
    base.wavefront = 7;
    base.arg0 = 11;
    base.arg1 = 13;

    const auto digestOf = [](const Event &ev) {
        Tracer t;
        t.record(ev);
        return digest(t);
    };

    const auto reference = digestOf(base);
    for (int field = 0; field < 9; ++field) {
        Event ev = base;
        switch (field) {
          case 0: ev.tick += 1; break;
          case 1: ev.kind = EventKind::WalkDone; break;
          case 2: ev.level += 1; break;
          case 3: ev.walker += 1; break;
          case 4: ev.wavefront += 1; break;
          case 5: ev.instruction += 1; break;
          case 6: ev.vaPage += mem::pageSize; break;
          case 7: ev.arg0 += 1; break;
          case 8: ev.arg1 += 1; break;
        }
        EXPECT_NE(digestOf(ev), reference)
            << "field " << field << " not folded into the digest";
    }
}

TEST(TraceDigest, DroppedEventsChangeTheDigest)
{
    // Two tracers retaining the same window must still differ if one
    // of them overflowed: the totals are folded in.
    TraceConfig small;
    small.ringCapacity = 4;
    Tracer overflowed(small), exact(small);
    for (sim::Tick i = 0; i < 8; ++i)
        overflowed.record(makeEvent(i, EventKind::Enqueued, 0, 0));
    for (sim::Tick i = 4; i < 8; ++i)
        exact.record(makeEvent(i, EventKind::Enqueued, 0, 0));

    ASSERT_EQ(overflowed.snapshot().size(), exact.snapshot().size());
    EXPECT_NE(digest(overflowed), digest(exact));
}

TEST(TraceDigest, HexIsSixteenZeroFilledDigits)
{
    EXPECT_EQ(digestHex(0x1), "0000000000000001");
    EXPECT_EQ(digestHex(0xcbf29ce484222325ull), "cbf29ce484222325");
    EXPECT_EQ(digestHex(0), "0000000000000000");
    EXPECT_EQ(digestHex(~0ull), "ffffffffffffffff");
}

TEST(TraceDigest, EmptyTracerHasFnvOffsetBasisSeedBehaviour)
{
    // An empty trace still digests its (zero) totals — the value is
    // fixed by the FNV-1a construction, so pin it as a golden value.
    Tracer t;
    EXPECT_EQ(digest(t), digest(t));
    Tracer u;
    EXPECT_EQ(digest(t), digest(u));
}

// --- Chrome exporter -----------------------------------------------

/** Counts non-overlapping occurrences of @p needle. */
std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (auto pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(ChromeExport, RendersBalancedSpansForOneWalkLifecycle)
{
    Tracer t;
    const std::uint64_t instr = 42;
    const mem::Addr page = 0x7000;

    t.record(makeEvent(100, EventKind::Coalesced, instr, page));
    t.record(makeEvent(200, EventKind::Enqueued, instr, page));
    t.record(makeEvent(200, EventKind::Scored, instr, page));
    {
        auto ev = makeEvent(900, EventKind::Scheduled, instr, page);
        ev.walker = 2;
        ev.arg1 = 700; // queue wait
        t.record(ev);
    }
    for (unsigned level = 4; level >= 3; --level) {
        auto issued = makeEvent(1000, EventKind::MemIssued, instr, page);
        issued.level = static_cast<std::uint8_t>(level);
        issued.walker = 2;
        t.record(issued);
        auto done = makeEvent(1500, EventKind::MemCompleted, instr, page);
        done.level = static_cast<std::uint8_t>(level);
        done.walker = 2;
        done.arg0 = 500; // latency
        t.record(done);
    }
    {
        auto ev = makeEvent(2000, EventKind::WalkDone, instr, page);
        ev.walker = 2;
        ev.arg0 = 2;    // accesses
        ev.arg1 = 1100; // service time
        t.record(ev);
    }

    std::ostringstream os;
    writeChromeTrace(os, t);
    const std::string json = os.str();

    // Well-formed envelope with the metadata the CLI test greps for.
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"events_recorded\""), std::string::npos);

    // The queue span opens and closes exactly once...
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"b\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"e\""), 1u);
    // ...and the walker renders one X span per PTE fetch plus one for
    // the whole walk service window.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 3u);
    // Per-walker rows use tid = 100 + walker index.
    EXPECT_NE(json.find("\"tid\":102"), std::string::npos);
    // The walker row is named for humans.
    EXPECT_NE(json.find("walker 2"), std::string::npos);
}

TEST(ChromeExport, ByteStableAcrossIdenticalTracers)
{
    const auto render = [] {
        Tracer t;
        for (sim::Tick i = 0; i < 50; ++i) {
            t.record(makeEvent(i * 10, EventKind::Enqueued, i % 3,
                               (i % 5) << 12));
            auto ev = makeEvent(i * 10 + 5, EventKind::Scheduled,
                                i % 3, (i % 5) << 12);
            ev.walker = i % 8;
            t.record(ev);
        }
        std::ostringstream os;
        writeChromeTrace(os, t);
        return os.str();
    };
    EXPECT_EQ(render(), render());
}

// --- Sweep-runner trace file naming --------------------------------

TEST(TraceFilePathTest, UniquifiesPerRunAndKeepsExtension)
{
    const auto path =
        exp::traceFilePath("out/trace.json", {"MVT", "fcfs", "", 7});
    EXPECT_EQ(path, "out/trace-MVT-fcfs-s7.json");

    // Every job label lands in the name: scheduler, seed and variant.
    EXPECT_NE(exp::traceFilePath("out/trace.json",
                                 {"MVT", "simt-aware", "", 7}),
              path);
    EXPECT_NE(exp::traceFilePath("out/trace.json", {"MVT", "fcfs", "", 8}),
              path);
    EXPECT_EQ(exp::traceFilePath("out/trace.json", {"MVT", "fcfs", "2M", 7}),
              "out/trace-MVT-fcfs-2M-s7.json");

    // Labels are free text; they become one safe path component.
    EXPECT_EQ(exp::traceFilePath("t.json",
                                 {"mix8", "fcfs", "(a) 1024 L2 TLB, 8/16", 1}),
              "t-mix8-fcfs-_a__1024_L2_TLB__8_16-s1.json");
}

TEST(TraceFilePathTest, HandlesExtensionlessPaths)
{
    EXPECT_EQ(exp::traceFilePath("trace_dump", {"KMN", "fcfs", "", 1}),
              "trace_dump-KMN-fcfs-s1");
    // A dot in a directory name is not an extension.
    EXPECT_EQ(exp::insertPathSuffix("out.d/trace", "-fcfs"),
              "out.d/trace-fcfs");
    EXPECT_EQ(exp::insertPathSuffix("out.d/trace.json", "-fcfs"),
              "out.d/trace-fcfs.json");
}

TEST(TraceFilePathTest, SweepVariantsDifferingInUnprintedFieldsGetOwnFiles)
{
    // None of these fields is in SystemConfig::print(), so a
    // config-fingerprint name gave each pair of variants one file.
    exp::SweepSpec spec;
    spec.base.trace.enabled = true;
    spec.base.trace.outPath = "tr/t.json";
    spec.workloads = {"MVT", "XSB"};
    spec.schedulers = {core::SchedulerKind::Fcfs,
                       core::SchedulerKind::SimtAware};
    spec.variants = {
        {"base", nullptr},
        {"2M",
         [](system::SystemConfig &, workload::WorkloadParams &params) {
             params.useLargePages = true;
         }},
        {"virt",
         [](system::SystemConfig &cfg, workload::WorkloadParams &) {
             cfg.gpu.virtualL1Cache = true;
         }},
        {"aging",
         [](system::SystemConfig &cfg, workload::WorkloadParams &) {
             cfg.simt.agingThreshold = 64;
         }},
    };
    std::set<std::string> paths;
    const auto jobs = spec.expand();
    for (const auto &job : jobs)
        paths.insert(job.spec.cfg.trace.outPath);
    EXPECT_EQ(jobs.size(), 16u);
    EXPECT_EQ(paths.size(), jobs.size());
    EXPECT_TRUE(paths.count("tr/t-XSB-simt-aware-aging-s42.json"));
}

} // namespace

/**
 * @file
 * google-benchmark micro-benchmarks of the building blocks on the
 * simulator's hot paths: event queue throughput, TLB lookups, PWC
 * probes, coalescing, and — most relevantly to the paper's "design
 * subtleties" discussion — the cost of the SIMT-aware scheduler's
 * buffer scans at various occupancies (§IV argues the scan is off the
 * critical path; these numbers quantify it).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/simt_aware_scheduler.hh"
#include "core/walk_scheduler.hh"
#include "iommu/page_walk_cache.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "vm/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"
#include "tlb/coalescer.hh"
#include "tlb/set_assoc_tlb.hh"

namespace {

using namespace gpuwalk;

/**
 * Steady-state schedule and dispatch on one long-lived queue. Each
 * pass schedules 1024 empty callables from now() and runs them all;
 * one in eight lands past the bucket window, so overflow parking,
 * migration and the time jump are timed too. The queue, its buckets
 * and its node slabs are built once, outside the timed loop.
 */
void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    constexpr int events = 1024;
    sim::EventQueue eq;
    const auto pass = [&eq] {
        for (int i = 0; i < events; ++i) {
            const auto near = static_cast<sim::Tick>(i);
            eq.scheduleIn(i % 8 == 0 ? sim::EventQueue::windowTicks + near
                                     : near,
                          [] {});
        }
        eq.run();
    };
    pass(); // grow the node slabs before timing
    for (auto _ : state)
        pass();
    benchmark::DoNotOptimize(eq.executed());
    state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * The simulator's own timing pattern: almost every event falls on a
 * multiple of 250 ticks (half a GPU cycle), spread over the whole
 * bucket window rather than packed into its first ticks. Each pass
 * schedules 1024 empty callables at the 262 multiples of 250 below
 * windowTicks, in a scattered order, and runs them all; successive
 * passes start where the last one ended, so the queue's whole bucket
 * array is swept as in a long simulation.
 */
void
BM_EventQueueScheduleRunSpread(benchmark::State &state)
{
    constexpr int events = 1024;
    constexpr sim::Tick step = 250;
    constexpr sim::Tick steps = sim::EventQueue::windowTicks / step;
    sim::EventQueue eq;
    const auto pass = [&eq] {
        for (int i = 0; i < events; ++i)
            eq.scheduleIn(step * (static_cast<sim::Tick>(i) * 37 % steps),
                          [] {});
        eq.run();
    };
    pass(); // grow the node slabs before timing
    for (auto _ : state)
        pass();
    benchmark::DoNotOptimize(eq.executed());
    state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRunSpread);

void
BM_TlbLookupHit(benchmark::State &state)
{
    tlb::SetAssocTlb tlb({"bench", 512, 16});
    for (std::uint64_t i = 0; i < 512; ++i)
        tlb.insert(i << 12, i << 12);
    std::uint64_t vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup((vpn++ % 512) << 12));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupHit);

void
BM_TlbLookupMiss(benchmark::State &state)
{
    tlb::SetAssocTlb tlb({"bench", 512, 16});
    std::uint64_t vpn = 1 << 20;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup((vpn++) << 12));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupMiss);

void
BM_PwcProbe(benchmark::State &state)
{
    iommu::PageWalkCache pwc({}, 0x1000);
    for (mem::Addr r = 0; r < 8; ++r)
        pwc.fill(r << 21, vm::PtLevel::Pd, 0x4000);
    mem::Addr va = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pwc.probeEstimate((va++ % 16) << 21));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PwcProbe);

void
BM_Coalesce64Divergent(benchmark::State &state)
{
    std::vector<mem::Addr> lanes;
    for (mem::Addr i = 0; i < 64; ++i)
        lanes.push_back(i * 32768);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb::coalesce(lanes));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Coalesce64Divergent);

void
BM_Coalesce64Coalesced(benchmark::State &state)
{
    std::vector<mem::Addr> lanes;
    for (mem::Addr i = 0; i < 64; ++i)
        lanes.push_back(0x1000 + i * 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb::coalesce(lanes));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Coalesce64Coalesced);

core::WalkBuffer
filledBuffer(std::size_t n)
{
    core::WalkBuffer buf(n);
    for (std::size_t i = 0; i < n; ++i) {
        core::PendingWalk w;
        w.seq = i;
        w.instruction = i / 8;
        w.score = (i * 7) % 97 + 1;
        buf.insert(std::move(w));
    }
    return buf;
}

void
BM_SimtAwareDispatchAging(benchmark::State &state)
{
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(0)));
    core::SimtAwareScheduler sched;
    core::PendingWalk w;
    w.seq = 1u << 30; // younger than everything: ages all entries
    for (auto _ : state) {
        sched.onDispatch(buf, w);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimtAwareDispatchAging)->Arg(64)->Arg(256)->Arg(512);

void
BM_DramDecode(benchmark::State &state)
{
    mem::DramConfig cfg;
    mem::DramAddressMapper mapper(cfg);
    mem::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.decode(addr));
        addr += 4096 + 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramDecode);

void
BM_PageTableMap(benchmark::State &state)
{
    mem::BackingStore store;
    vm::FrameAllocator frames(mem::Addr(32) << 30);
    vm::PageTable table(store, frames);
    mem::Addr va = mem::Addr(1) << 32;
    for (auto _ : state) {
        table.map(va, frames.allocateFrame());
        va += mem::pageSize;
    }
    state.SetItemsProcessed(state.iterations());
}
// Each iteration consumes a frame; cap iterations so adaptive timing
// can't exhaust the 32 GB allocator on fast hosts.
BENCHMARK(BM_PageTableMap)->Iterations(1 << 20);

void
BM_PageTableMapRange(benchmark::State &state)
{
    // One 2 MB-aligned 16 MB region per iteration, the way
    // AddressSpace::allocate maps a 4 KB region; items are pages, so
    // the rate reads as ns per page beside BM_PageTableMap.
    constexpr std::uint64_t pages = 4096;
    mem::BackingStore store;
    vm::FrameAllocator frames(mem::Addr(32) << 30);
    vm::PageTable table(store, frames);
    mem::Addr va = mem::Addr(1) << 32;
    for (auto _ : state) {
        table.mapRange(va, pages);
        benchmark::ClobberMemory();
        va += pages * mem::pageSize;
    }
    state.SetItemsProcessed(state.iterations() * pages);
}
// 256 iterations map the same 1 M pages as BM_PageTableMap.
BENCHMARK(BM_PageTableMapRange)->Iterations(1 << 8);

void
BM_PageTableTranslate(benchmark::State &state)
{
    mem::BackingStore store;
    vm::FrameAllocator frames(mem::Addr(4) << 30);
    vm::PageTable table(store, frames);
    for (mem::Addr i = 0; i < 4096; ++i)
        table.map((mem::Addr(1) << 32) + i * mem::pageSize,
                  frames.allocateFrame());
    mem::Addr va = mem::Addr(1) << 32;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.translate(va));
        va = (mem::Addr(1) << 32)
             + (va + mem::pageSize) % (4096 * mem::pageSize);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableTranslate);

void
BM_BackingStoreRead64(benchmark::State &state)
{
    mem::BackingStore store;
    for (mem::Addr a = 0; a < (1 << 22); a += mem::pageSize)
        store.write64(a, a);
    mem::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.read64(addr));
        addr = (addr + mem::pageSize) % (1 << 22);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackingStoreRead64);

void
BM_TlbInsertEvict(benchmark::State &state)
{
    tlb::SetAssocTlb tlb({"bench", 512, 16});
    std::uint64_t vpn = 0;
    for (auto _ : state) {
        const std::uint64_t v = vpn++;
        tlb.insert(v << 12, v << 12);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbInsertEvict);

/**
 * The steady state of a per-CU L1 TLB under irregular traffic: a full
 * 32-entry fully associative TLB fed distinct VPNs, so every lookup
 * misses the whole set and every fill evicts the LRU way.
 */
void
BM_TlbMissFillFullyAssociative(benchmark::State &state)
{
    tlb::SetAssocTlb tlb({"bench_l1tlb", 32, 32});
    std::uint64_t vpn = 0;
    for (; vpn < 32; ++vpn)
        tlb.insert(vpn << 12, vpn << 12);
    for (auto _ : state) {
        const std::uint64_t v = vpn++;
        benchmark::DoNotOptimize(tlb.lookup(v << 12));
        tlb.insert(v << 12, v << 12);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbMissFillFullyAssociative);

/** Memory stub below the cache: completes every fill immediately. */
class ImmediateMemory : public mem::MemoryDevice
{
  public:
    explicit ImmediateMemory(mem::MemoryTable &table) : table_(table) {}

    void access(mem::RequestHandle req) override { table_.complete(req); }

  private:
    mem::MemoryTable &table_;
};

/**
 * One demand access to a 16-way, 64 B-line cache of range(0) KB,
 * drained through the event queue. With range(2) == 0 it walks line
 * by line over a range(1) KB window: on the l1d shape (32 KB), 16 KB
 * stays resident (hits after the first lap) and 256 KB streams (every
 * access misses and evicts). With range(2) == 1 it draws random lines
 * from the window: on the l2d shape (4 MB) over 64 MB, most accesses
 * miss a full set and evict.
 */
void
BM_CacheAccess(benchmark::State &state)
{
    sim::EventQueue eq;
    mem::MemoryTable table;
    ImmediateMemory below(table);
    const auto size = static_cast<mem::Addr>(state.range(0)) * 1024;
    mem::Cache cache(eq, {"bench_cache", size, 16, 64, 500, 500, 32},
                     table, below);
    const mem::Addr lines =
        static_cast<mem::Addr>(state.range(1)) * 1024 / 64;
    const bool random = state.range(2) != 0;
    sim::Rng rng(42);
    mem::Addr line = 0;
    for (auto _ : state) {
        const mem::RequestHandle req = table.acquire();
        table.at(req).addr = line * 64;
        cache.access(req);
        eq.run();
        line = random ? rng.below(lines) : (line + 1) % lines;
    }
    benchmark::DoNotOptimize(cache.hits());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)
    ->ArgNames({"size_kb", "window_kb", "random"})
    ->Args({32, 16, 0})
    ->Args({32, 256, 0})
    ->Args({4096, 65536, 1});

/** Route owner for BM_RequestRoundTrip: counts completions. */
class CountingSink final : public mem::MemorySink
{
  public:
    void
    memoryDone(const mem::MemoryRoute &route) override
    {
        sum += route.tag;
    }

    std::size_t memoryInFlight() const override { return 0; }
    std::uint64_t sum = 0;
};

/**
 * One request's whole life in its table: acquire a routed slot, fill
 * it, complete it (release plus the route dispatch to its sink).
 */
void
BM_RequestRoundTrip(benchmark::State &state)
{
    mem::MemoryTable table;
    CountingSink sink;
    const std::uint16_t id = table.attach(sink);
    std::uint32_t tag = 0;
    for (auto _ : state) {
        const mem::RequestHandle req =
            table.acquire({mem::MemoryRouteKind::CuLine, id, tag++});
        table.at(req).addr = tag;
        table.complete(req);
    }
    benchmark::DoNotOptimize(sink.sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestRoundTrip);

/**
 * The paper-policy pick cost at a given buffer occupancy, for each of
 * the schedulers whose selection the pick indexes accelerate. The
 * batching register is primed so the Batch rule (the most common pick
 * in steady state) is on the measured path; Fcfs measures the
 * oldest-entry query. EXPERIMENTS.md ("Simulator throughput records")
 * reads the sched:4 (simt-aware) occ:256 row; the CI perf-smoke gate
 * bounds its ratio to the sched:4 occ:8 row.
 */
void
BM_SchedulerSelectNext(benchmark::State &state)
{
    const auto kind = static_cast<core::SchedulerKind>(state.range(0));
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(1)));
    auto sched = core::makeScheduler(kind);
    core::PendingWalk primer;
    primer.instruction = 1;
    sched->onDispatch(buf, primer);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched->selectNext(buf));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerSelectNext)
    ->ArgNames({"sched", "occ"})
    ->ArgsProduct({{static_cast<long>(core::SchedulerKind::Fcfs),
                    static_cast<long>(core::SchedulerKind::SjfOnly),
                    static_cast<long>(core::SchedulerKind::BatchOnly),
                    static_cast<long>(core::SchedulerKind::SimtAware)},
                   {8, 64, 256}});

/**
 * The buffer's whole per-walk cost at occupancy 256, as the IOMMU pays
 * it: one arrival scored the paper's way (the instruction's running
 * score plus a 1-4 access estimate, written to every sibling through
 * rescoreInstruction), then one pick, extract and onDispatch. Walks
 * come 8 per instruction over 4 tenants, so the weighted-share row
 * also exercises the per-tenant lists.
 */
void
BM_WalkBufferChurn(benchmark::State &state)
{
    constexpr std::size_t occupancy = 256;
    const auto kind = static_cast<core::SchedulerKind>(state.range(0));
    auto sched = core::makeScheduler(kind);
    core::WalkBuffer buf(occupancy);
    std::uint64_t seq = 0;
    auto arrive = [&] {
        core::PendingWalk w;
        w.seq = seq;
        w.instruction = seq / 8;
        w.ctx = static_cast<tlb::ContextId>(w.instruction % 4);
        w.estimatedAccesses = 1 + static_cast<unsigned>((seq * 7) % 4);
        w.score = buf.instructionScore(w.instruction) + w.estimatedAccesses;
        buf.rescoreInstruction(w.instruction, w.score);
        buf.insert(std::move(w));
        ++seq;
    };
    while (buf.size() + 1 < occupancy)
        arrive();
    for (auto _ : state) {
        arrive();
        const std::size_t idx = sched->selectNext(buf);
        core::PendingWalk w = buf.extract(idx);
        sched->onDispatch(buf, w);
        benchmark::DoNotOptimize(w.seq);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalkBufferChurn)
    ->ArgName("sched")
    ->Arg(static_cast<long>(core::SchedulerKind::SimtAware))
    ->Arg(static_cast<long>(core::SchedulerKind::WeightedShare));

/** Shared driver for the hash-map lookup benches: n pseudo-random
 *  keys inserted once, then round-robin point lookups (all hits). */
template <typename Map>
void
mapLookupBench(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Map map;
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push_back(x);
        map[x] = i;
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.find(keys[i]));
        i = (i + 1 == n) ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_UnorderedMapLookup(benchmark::State &state)
{
    mapLookupBench<std::unordered_map<std::uint64_t, std::uint64_t>>(
        state);
}
BENCHMARK(BM_UnorderedMapLookup)->Arg(256)->Arg(4096)->Arg(65536);

void
BM_FlatMapLookup(benchmark::State &state)
{
    mapLookupBench<sim::FlatMap<std::uint64_t, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapLookup)->Arg(256)->Arg(4096)->Arg(65536);

} // namespace

/**
 * Custom main so this binary speaks the same CLI dialect as the other
 * benches: --json maps onto google-benchmark's JSON reporter, --jobs
 * is accepted and ignored (micro-benchmarks are single-threaded by
 * design). Everything else passes through to the library.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(prefix.size());
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
            (void)value("--jobs");
        } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
            passthrough.push_back("--benchmark_out="
                                  + value("--json"));
            passthrough.push_back("--benchmark_out_format=json");
        } else {
            passthrough.push_back(arg);
        }
    }

    std::vector<char *> args;
    for (auto &s : passthrough)
        args.push_back(s.data());
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

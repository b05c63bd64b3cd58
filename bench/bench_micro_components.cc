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

#include "core/fcfs_scheduler.hh"
#include "core/simt_aware_scheduler.hh"
#include "core/srpt_scheduler.hh"
#include "iommu/page_walk_cache.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "vm/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/object_pool.hh"
#include "tlb/coalescer.hh"
#include "tlb/set_assoc_tlb.hh"

namespace {

using namespace gpuwalk;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<sim::Tick>(i), [] {});
        eq.run();
        benchmark::DoNotOptimize(eq.executed());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

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
        w.request.instruction = i / 8;
        w.score = (i * 7) % 97 + 1;
        buf.insert(std::move(w));
    }
    return buf;
}

void
BM_FcfsSelect(benchmark::State &state)
{
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(0)));
    core::FcfsScheduler sched;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.selectNext(buf));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FcfsSelect)->Arg(64)->Arg(256)->Arg(512);

void
BM_SimtAwareSelect(benchmark::State &state)
{
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(0)));
    core::SimtAwareScheduler sched;
    // Prime the batching register.
    core::PendingWalk primer;
    primer.request.instruction = 1;
    sched.onDispatch(buf, primer);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.selectNext(buf));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimtAwareSelect)->Arg(64)->Arg(256)->Arg(512);

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
 * One acquire/release pair on a pool grown to range(0) slabs. All
 * objects are released in acquisition order first, so the LIFO top is
 * a last-slab object: the release a per-slab search pays most for.
 */
void
BM_ObjectPoolAcquireRelease(benchmark::State &state)
{
    struct Node
    {
        std::uint64_t payload[4];
    };
    constexpr std::size_t slabObjects = 64;
    sim::ObjectPool<Node> pool(slabObjects);
    std::vector<Node *> held;
    const auto slabs = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < slabs * slabObjects; ++i)
        held.push_back(pool.acquire());
    for (Node *n : held)
        pool.release(n);
    for (auto _ : state) {
        Node *n = pool.acquire();
        benchmark::DoNotOptimize(n);
        pool.release(n);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectPoolAcquireRelease)->Arg(1)->Arg(64);

/** Memory stub below the cache: completes every fill immediately. */
class ImmediateMemory : public mem::MemoryDevice
{
  public:
    void access(mem::MemoryRequest req) override { req.complete(); }
};

/**
 * One demand access to an l1d-shaped cache (32 KB, 16-way, 64 B
 * lines), drained through the event queue, walking line by line over
 * a range(0) KB window: 16 KB stays resident (hits after the first
 * lap), 256 KB streams (every access misses and evicts).
 */
void
BM_CacheAccess(benchmark::State &state)
{
    sim::EventQueue eq;
    ImmediateMemory below;
    mem::Cache cache(eq, {"bench_l1d", 32 * 1024, 16, 64, 500, 500, 32},
                     below);
    const mem::Addr window = static_cast<mem::Addr>(state.range(0)) * 1024;
    mem::Addr addr = 0;
    for (auto _ : state) {
        mem::MemoryRequest req;
        req.addr = addr;
        cache.access(std::move(req));
        eq.run();
        addr = (addr + 64) % window;
    }
    benchmark::DoNotOptimize(cache.hits());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->ArgName("window_kb")->Arg(16)->Arg(256);

/**
 * The paper-policy pick cost at a given buffer occupancy, for each of
 * the schedulers whose selection the pick indexes accelerate. The
 * batching register is primed so the Batch rule (the most common pick
 * in steady state) is on the measured path; Fcfs measures the
 * oldest-entry query. BENCH_hotpath.json and the CI perf-smoke gate
 * read the sched:4 (simt-aware) occ:256 row.
 */
void
BM_SchedulerSelectNext(benchmark::State &state)
{
    const auto kind = static_cast<core::SchedulerKind>(state.range(0));
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(1)));
    auto sched = core::makeScheduler(kind);
    core::PendingWalk primer;
    primer.request.instruction = 1;
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

void
BM_SrptSelect(benchmark::State &state)
{
    auto buf = filledBuffer(static_cast<std::size_t>(state.range(0)));
    core::SrptScheduler sched(false);
    sched.setEstimator([](mem::Addr va, tlb::ContextId) -> unsigned {
        return 1 + (va >> 12) % 4;
    });
    for (auto _ : state) {
        benchmark::DoNotOptimize(sched.selectNext(buf));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SrptSelect)->Arg(64)->Arg(256)->Arg(512);

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

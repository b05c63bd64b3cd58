/**
 * @file
 * Randomized reference-model tests: drive each stateful structure
 * with thousands of random operations and compare against a trivially
 * correct model (std::map / sorted vector). Seeds are fixed, so
 * failures reproduce. The last suite fuzzes whole-System configs and
 * checks them against themselves: each run twice, audited and traced,
 * byte-identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/pending_walk.hh"
#include "exp/report.hh"
#include "exp/run.hh"
#include "mem/backing_store.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "tlb/set_assoc_tlb.hh"
#include "trace/digest.hh"
#include "vm/address_space.hh"

namespace {

using namespace gpuwalk;
using gpuwalk::mem::Addr;

TEST(FuzzEventQueue, MatchesSortedReference)
{
    sim::Rng rng(101);
    sim::EventQueue eq;
    std::vector<std::pair<sim::Tick, int>> expected;
    std::vector<std::pair<sim::Tick, int>> observed;

    // Random schedule times; equal times must preserve insert order,
    // which a stable sort of the reference reproduces.
    for (int i = 0; i < 5000; ++i) {
        const sim::Tick when = rng.below(1000);
        expected.emplace_back(when, i);
        eq.schedule(when, [&observed, when, i] {
            observed.emplace_back(when, i);
        });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    eq.run();
    EXPECT_EQ(observed, expected);
}

TEST(FuzzBackingStore, MatchesByteMap)
{
    sim::Rng rng(202);
    mem::BackingStore store;
    std::map<Addr, std::uint8_t> reference;

    for (int i = 0; i < 20000; ++i) {
        // Random 1-8 byte op within a random frame, no straddling.
        const Addr frame = rng.below(64) * mem::pageSize;
        const unsigned size = 1u << rng.below(4);
        const Addr offset =
            rng.below(mem::pageSize / size) * size;
        const Addr addr = frame + offset;
        if (rng.chance(0.5)) {
            const std::uint64_t value = rng.next();
            store.write(addr, value, size);
            for (unsigned b = 0; b < size; ++b) {
                reference[addr + b] =
                    static_cast<std::uint8_t>(value >> (8 * b));
            }
        } else {
            const std::uint64_t got = store.read(addr, size);
            std::uint64_t want = 0;
            for (unsigned b = 0; b < size; ++b) {
                auto it = reference.find(addr + b);
                const std::uint64_t byte =
                    it == reference.end() ? 0 : it->second;
                want |= byte << (8 * b);
            }
            ASSERT_EQ(got, want) << "at " << addr << " size " << size;
        }
    }
}

TEST(FuzzTlb, NeverReturnsAWrongTranslation)
{
    // The TLB may evict (forget), but a hit must always return what
    // was last inserted for that page.
    sim::Rng rng(303);
    tlb::SetAssocTlb tlb({"fuzz", 64, 4});
    std::map<Addr, Addr> reference;

    for (int i = 0; i < 30000; ++i) {
        const Addr va = rng.below(512) << mem::pageShift;
        if (rng.chance(0.4)) {
            const Addr pa = rng.below(1u << 20) << mem::pageShift;
            tlb.insert(va, pa);
            reference[va] = pa;
        } else if (rng.chance(0.1)) {
            tlb.invalidate(va);
            reference.erase(va);
        } else {
            auto hit = tlb.lookup(va);
            if (hit) {
                auto it = reference.find(va);
                ASSERT_NE(it, reference.end())
                    << "hit for never-inserted page " << va;
                ASSERT_EQ(*hit, it->second) << "stale mapping for "
                                            << va;
            }
        }
    }
    EXPECT_LE(tlb.population(), 64u);
}

TEST(FuzzTlb, MixedPageSizesStayConsistent)
{
    sim::Rng rng(404);
    tlb::SetAssocTlb tlb({"fuzz2m", 64, 8});
    std::map<Addr, Addr> small_ref;   // va_page -> pa_page
    std::map<Addr, Addr> large_ref;   // 2MB region -> 2MB base

    for (int i = 0; i < 20000; ++i) {
        const Addr region = rng.below(32) << 21;
        const Addr va = region + (rng.below(512) << mem::pageShift);
        const double dice = rng.uniform();
        if (dice < 0.25) {
            const Addr pa = rng.below(1u << 16) << mem::pageShift;
            tlb.insert(va, pa, false);
            small_ref[va] = pa;
        } else if (dice < 0.4) {
            const Addr base = rng.below(1u << 8) << 21;
            tlb.insert(va, base, true);
            large_ref[region] = base;
        } else {
            auto hit = tlb.lookupEntry(va);
            if (!hit)
                continue;
            if (!hit->largePage) {
                auto it = small_ref.find(va);
                ASSERT_NE(it, small_ref.end());
                ASSERT_EQ(hit->paPage, it->second);
            } else {
                auto it = large_ref.find(region);
                ASSERT_NE(it, large_ref.end());
                ASSERT_EQ(hit->paPage,
                          it->second
                              | (va & vm::largePageMask
                                 & ~(mem::pageSize - 1)));
            }
        }
    }
}

TEST(FuzzPageTable, RandomMapTranslateAgree)
{
    sim::Rng rng(505);
    mem::BackingStore store;
    vm::FrameAllocator frames{Addr(8) << 30};
    vm::PageTable table(store, frames);
    std::map<Addr, Addr> reference;

    for (int i = 0; i < 5000; ++i) {
        // Spread VAs across several PML4/PDPT subtrees.
        const Addr va = (rng.below(4) << 39) | (rng.below(4) << 30)
                        | (rng.below(16) << 21)
                        | (rng.below(64) << mem::pageShift);
        if (rng.chance(0.6)) {
            const Addr pa = frames.allocateFrame();
            table.map(va, pa);
            reference[va] = pa;
        } else {
            const Addr probe = va | rng.below(mem::pageSize);
            auto got = table.translate(probe);
            auto it = reference.find(va);
            if (it == reference.end()) {
                ASSERT_FALSE(got.has_value())
                    << "phantom mapping at " << probe;
            } else {
                ASSERT_TRUE(got.has_value());
                ASSERT_EQ(*got,
                          it->second | (probe & (mem::pageSize - 1)));
            }
        }
    }
}

TEST(FuzzWalkBuffer, ExtractPreservesTheMultiset)
{
    sim::Rng rng(606);
    core::WalkBuffer buf(128);
    std::multiset<std::uint64_t> reference; // seqs
    std::uint64_t next_seq = 0;

    for (int i = 0; i < 30000; ++i) {
        if (!buf.full() && (buf.empty() || rng.chance(0.55))) {
            core::PendingWalk w;
            w.seq = next_seq++;
            w.request.instruction = rng.below(32);
            reference.insert(w.seq);
            buf.insert(std::move(w));
        } else {
            const std::size_t idx = rng.below(buf.size());
            const auto w = buf.extract(idx);
            auto it = reference.find(w.seq);
            ASSERT_NE(it, reference.end());
            reference.erase(it);
        }
        ASSERT_EQ(buf.size(), reference.size());
        if (!buf.empty()) {
            ASSERT_EQ(buf.at(buf.oldestIndex()).seq,
                      *reference.begin());
        }
    }
}

system::RunStats
runAudited(core::SchedulerKind sched, const std::string &workload,
           const workload::WorkloadParams &params)
{
    system::SystemConfig cfg = system::SystemConfig::baseline();
    cfg.scheduler = sched;
    cfg.trace.enabled = true;
    // Final-only audit: drains the run to quiescence and fails it on
    // any conservation violation.
    cfg.audit.enabled = true;
    cfg.audit.interval = 0;
    return exp::runOne(cfg, workload, params).stats;
}

/** Randomized workload x scheduler x shape configurations, each run
 *  twice and required to pass the audit and repeat bit for bit. Fixed
 *  RNG seed: the cases are random-looking but reproducible. */
TEST(FuzzSystem, AuditedConfigsRepeatBitIdentical)
{
    const std::vector<core::SchedulerKind> schedulers{
        core::SchedulerKind::Fcfs,      core::SchedulerKind::Random,
        core::SchedulerKind::SjfOnly,   core::SchedulerKind::BatchOnly,
        core::SchedulerKind::SimtAware};
    const std::vector<std::string> workloads{"MVT", "BIC", "KMN"};

    std::mt19937 rng(0xd0a11u);
    constexpr int cases = 6;
    for (int c = 0; c < cases; ++c) {
        const auto sched = schedulers[rng() % schedulers.size()];
        const auto &workload = workloads[rng() % workloads.size()];

        workload::WorkloadParams params;
        params.wavefronts = 8 + 8 * (rng() % 3);       // 8 / 16 / 24
        params.instructionsPerWavefront = 4 + rng() % 5; // 4..8
        params.seed = 1 + rng() % 1000;
        params.footprintScale = (rng() % 2) ? 0.03 : 0.05;
        params.computeCycles = 10 + 10 * (rng() % 2);  // 10 / 20

        const std::string what =
            "case " + std::to_string(c) + ": " + workload + "/"
            + core::toString(sched) + " wf="
            + std::to_string(params.wavefronts) + " ipw="
            + std::to_string(params.instructionsPerWavefront) + " seed="
            + std::to_string(params.seed);

        const system::RunStats first = runAudited(sched, workload, params);
        ASSERT_TRUE(first.audited) << what;
        EXPECT_EQ(first.auditViolations, 0u) << what;
        EXPECT_EQ(first.traceDropped, 0u) << what;
        ASSERT_GT(first.walksCompleted, 0u) << what;

        const system::RunStats repeat =
            runAudited(sched, workload, params);
        EXPECT_EQ(trace::digestHex(repeat.traceDigest),
                  trace::digestHex(first.traceDigest))
            << what;
        EXPECT_EQ(exp::statsJsonString(repeat),
                  exp::statsJsonString(first))
            << what;
    }
}

} // namespace

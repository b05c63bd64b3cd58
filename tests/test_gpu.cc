/**
 * @file
 * Unit tests for the GPU compute model: lockstep instruction
 * semantics, wavefront dispatch/refill, and stall accounting.
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "tlb/tlb_hierarchy.hh"

namespace {

using namespace gpuwalk;
using gpuwalk::mem::Addr;

/** Instant IOMMU: identity translation after a fixed delay. */
class InstantIommu : public tlb::TranslationService
{
  public:
    InstantIommu(sim::EventQueue &eq, tlb::TranslationTable &table,
                 sim::Tick latency)
        : eq_(eq), table_(table), latency_(latency)
    {}

    void
    translate(tlb::RequestHandle req) override
    {
        eq_.scheduleIn(latency_, [this, req] {
            table_.complete(req, table_.at(req).vaPage);
        });
    }

  private:
    sim::EventQueue &eq_;
    tlb::TranslationTable &table_;
    sim::Tick latency_;
};

/** Memory stub for the data path. */
class FixedMemory : public mem::MemoryDevice
{
  public:
    FixedMemory(sim::EventQueue &eq, mem::MemoryTable &table,
                sim::Tick latency)
        : eq_(eq), table_(table), latency_(latency)
    {}

    void
    access(mem::RequestHandle req) override
    {
        ++accesses;
        eq_.scheduleIn(latency_, [this, req] { table_.complete(req); });
    }

    unsigned accesses = 0;

  private:
    sim::EventQueue &eq_;
    mem::MemoryTable &table_;
    sim::Tick latency_;
};

struct GpuFixture : public ::testing::Test
{
    sim::EventQueue eq;
    tlb::TranslationTable translations;
    mem::MemoryTable requests;
    gpu::GpuConfig cfg;
    tlb::TlbHierarchyConfig tlb_cfg;
    InstantIommu iommu{eq, translations, 100 * 500};
    FixedMemory memory{eq, requests, 50 * 500};
    std::unique_ptr<tlb::TlbHierarchy> tlbs;
    std::unique_ptr<gpu::Gpu> gpu;

    void
    build(unsigned num_cus = 2, unsigned wf_per_cu = 2)
    {
        cfg.numCus = num_cus;
        cfg.wavefrontsPerCu = wf_per_cu;
        tlb_cfg.numCus = num_cus;
        tlbs = std::make_unique<tlb::TlbHierarchy>(eq, tlb_cfg,
                                                   translations, iommu);
        std::vector<mem::MemoryDevice *> l1ds(num_cus, &memory);
        gpu = std::make_unique<gpu::Gpu>(eq, cfg, *tlbs, requests, l1ds);
    }

    static gpu::SimdMemInstruction
    divergentLoad(Addr base, unsigned pages,
                  sim::Cycles compute = 10)
    {
        gpu::SimdMemInstruction instr;
        for (unsigned i = 0; i < pages; ++i)
            instr.laneAddrs.push_back(base + Addr(i) * mem::pageSize);
        instr.computeCycles = compute;
        return instr;
    }

    void
    run()
    {
        gpu->start();
        while (!gpu->done() && eq.runOne()) {
        }
    }
};

TEST_F(GpuFixture, SingleWavefrontRetiresItsTrace)
{
    build();
    gpu::GpuWorkload wl;
    wl.traces.push_back({divergentLoad(0x1000000, 4),
                         divergentLoad(0x2000000, 4)});
    gpu->loadWorkload(std::move(wl));
    run();
    EXPECT_TRUE(gpu->done());
    EXPECT_EQ(gpu->totalInstructions(), 2u);
    EXPECT_GT(gpu->finishTick(), 0u);
}

TEST_F(GpuFixture, LockstepBlocksUntilAllLinesReturn)
{
    build(1, 1);
    gpu::GpuWorkload wl;
    wl.traces.push_back({divergentLoad(0x1000000, 8)});
    gpu->loadWorkload(std::move(wl));
    run();
    // 8 pages -> 8 translations and 8 line fills.
    EXPECT_EQ(memory.accesses, 8u);
    // Completion strictly after translation + data latency.
    EXPECT_GT(gpu->finishTick(), 100u * 500u + 50u * 500u);
}

TEST_F(GpuFixture, EmptyInstructionStillRetires)
{
    build(1, 1);
    gpu::GpuWorkload wl;
    gpu::SimdMemInstruction empty;
    wl.traces.push_back({empty, divergentLoad(0x1000000, 1)});
    gpu->loadWorkload(std::move(wl));
    run();
    EXPECT_EQ(gpu->totalInstructions(), 2u);
}

TEST_F(GpuFixture, WavefrontsSpreadRoundRobinOverCus)
{
    build(2, 2);
    gpu::GpuWorkload wl;
    for (int i = 0; i < 4; ++i)
        wl.traces.push_back({divergentLoad(0x1000000 + i * 0x100000, 1)});
    gpu->loadWorkload(std::move(wl));
    EXPECT_EQ(gpu->cu(0).wavefrontsResident(), 2u);
    EXPECT_EQ(gpu->cu(1).wavefrontsResident(), 2u);
    run();
    EXPECT_TRUE(gpu->done());
}

TEST_F(GpuFixture, OversubscriptionRefillsSlots)
{
    build(2, 1); // 2 resident slots total
    gpu::GpuWorkload wl;
    for (int i = 0; i < 10; ++i)
        wl.traces.push_back({divergentLoad(0x1000000 + i * 0x100000, 2)});
    gpu->loadWorkload(std::move(wl));
    EXPECT_EQ(gpu->cu(0).wavefrontsResident(), 1u);
    run();
    EXPECT_TRUE(gpu->done());
    EXPECT_EQ(gpu->totalInstructions(), 10u);
}

TEST_F(GpuFixture, StallTicksAccumulateWhenAllWavefrontsBlock)
{
    build(1, 1);
    gpu::GpuWorkload wl;
    wl.traces.push_back({divergentLoad(0x1000000, 4, /*compute=*/1)});
    gpu->loadWorkload(std::move(wl));
    run();
    // A single wavefront waiting on memory stalls its whole CU for
    // nearly the entire run.
    EXPECT_GT(gpu->cu(0).stallTicks(), gpu->finishTick() / 2);
}

TEST_F(GpuFixture, ComputeHidesMemoryWhenParallelismIsHigh)
{
    build(1, 4);
    gpu::GpuWorkload wl;
    for (int i = 0; i < 4; ++i) {
        gpu::WavefrontTrace t;
        for (int k = 0; k < 4; ++k)
            t.push_back(divergentLoad(0x1000000 + (i * 4 + k) * 0x10000,
                                      1, /*compute=*/5000));
        wl.traces.push_back(std::move(t));
    }
    gpu->loadWorkload(std::move(wl));
    run();
    // Long compute phases overlap each other's memory: stalls are a
    // small fraction of runtime.
    EXPECT_LT(gpu->cu(0).stallTicks(), gpu->finishTick() / 2);
}

TEST_F(GpuFixture, InstructionIdsAreUniqueAndMonotonic)
{
    build();
    const auto a = gpu->nextInstructionId();
    const auto b = gpu->nextInstructionId();
    EXPECT_LT(a, b);
}

TEST_F(GpuFixture, StoresCountAsInstructions)
{
    build(1, 1);
    gpu::GpuWorkload wl;
    auto st = divergentLoad(0x1000000, 2);
    st.isLoad = false;
    wl.traces.push_back({st});
    gpu->loadWorkload(std::move(wl));
    run();
    EXPECT_EQ(gpu->totalInstructions(), 1u);
}

TEST_F(GpuFixture, ReadyFifoRetiresEveryInstruction)
{
    build(2, 2);
    gpu::GpuWorkload wl;
    for (int i = 0; i < 8; ++i)
        wl.traces.push_back({divergentLoad(0x1000000 + i * 0x100000, 2),
                             divergentLoad(0x3000000 + i * 0x100000, 2)});
    gpu->loadWorkload(std::move(wl));
    run();
    EXPECT_EQ(gpu->totalInstructions(), 16u);
}

} // namespace

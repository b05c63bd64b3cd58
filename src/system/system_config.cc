#include "system/system_config.hh"

#include "gpu/instruction.hh"

namespace gpuwalk::system {

void
SystemConfig::print(std::ostream &os) const
{
    os << "GPU            " << (1'000'000 / gpu.clockPeriod / 1000.0)
       << " GHz, " << gpu.numCus << " CUs, " << gpu.simdPerCu
       << " SIMD per CU\n"
       << "               " << gpu.simdWidth << " SIMD width, "
       << gpuwalk::gpu::wavefrontSize << " threads per wavefront, "
       << gpu.wavefrontsPerCu << " wavefronts per CU\n"
       << "L1 Data Cache  " << l1d.sizeBytes / 1024 << "KB, "
       << l1d.associativity << "-way, " << l1d.lineBytes << "B block\n"
       << "L2 Data Cache  " << l2d.sizeBytes / (1024 * 1024) << "MB, "
       << l2d.associativity << "-way, " << l2d.lineBytes << "B block\n"
       << "L1 TLB         " << gpuTlb.l1Entries
       << " entries, fully-associative (per CU)\n"
       << "L2 TLB         " << gpuTlb.l2Entries << " entries, "
       << gpuTlb.l2Associativity << "-way set associative (shared)\n"
       << "IOMMU          " << iommu.bufferEntries << " buffer entries, "
       << iommu.numWalkers << " page table walkers\n"
       << "               " << iommu.l1TlbEntries << "/"
       << iommu.l2TlbEntries << " entries for IOMMU L1/L2 TLB\n"
       << "               " << core::toString(scheduler)
       << " scheduling of page walks\n";
    // QoS knobs print only when the QoS policy reads them, so the
    // config fingerprints of every other scheduler stay unchanged.
    if (scheduler == core::SchedulerKind::WeightedShare) {
        os << "QoS            weighted share:";
        if (qos.shareWeights.empty()) {
            os << " equal weights";
        } else {
            for (auto w : qos.shareWeights)
                os << ' ' << w;
        }
        os << "\n";
    }
    // GMMU knobs print only under demand paging, so fully resident
    // configurations keep their pre-GMMU fingerprints. The fixed fault
    // order and placement rule still print, so paging fingerprints
    // stay the same too.
    if (gmmu.enabled) {
        os << "GMMU           oversubscription " << gmmu.oversubscription
           << ", fcfs fault servicing, " << vm::toString(gmmu.evict)
           << " eviction\n"
           << "               fault latency " << gmmu.faultLatency
           << " ticks, migration " << gmmu.migrationLatency
           << " ticks, batch " << gmmu.batchSize
           << ", contiguity-aware allocation\n";
    }
    // Prefetch knobs print only when a policy is on, so --prefetch=off
    // configurations keep their pre-prefetcher fingerprints.
    if (iommu.prefetch.kind != iommu::PrefetchKind::Off) {
        os << "Prefetch       " << iommu::toString(iommu.prefetch.kind)
           << " translation prefetch, degree " << iommu.prefetch.degree
           << ", " << iommu.prefetch.sppSignatureBits
           << "-bit signatures, " << iommu.prefetch.sppPatternEntries
           << " pattern entries, confidence "
           << iommu.prefetch.sppConfidenceThreshold << "\n";
    }
    os << "PWC            " << iommu.pwc.entriesPerLevel
       << " entries/level, " << iommu.pwc.associativity << "-way"
       << (iommu.pwc.pinScoredEntries ? ", counter-pinned replacement"
                                      : "")
       << "\n"
       << "DRAM           DDR3-1600 (" << 1'000'000 / dram.tCK
       << " MHz), " << dram.channels << " channels\n"
       << "               " << dram.banksPerRank << " banks per rank, "
       << dram.ranksPerChannel << " ranks per channel\n";
}

} // namespace gpuwalk::system

/**
 * @file
 * SPP-style signature-path translation prefetcher.
 *
 * The Signature Path Prefetcher (Kim et al., MICRO 2016) learns
 * compressed delta-history signatures and chains predictions down a
 * confidence product. This port swaps cache lines for translation
 * pages and memory-access streams for per-wavefront page streams:
 *
 *  - Signature table: one entry per (ctx, wavefront) stream holding
 *    the stream's last touched page and its compressed signature
 *    sig' = ((sig << shift) ^ fold(delta)) & mask.
 *  - Pattern table: direct-mapped, signature-tagged; each entry
 *    tracks up to four distinct page deltas with saturating counters
 *    against a per-entry total, so counter / total is the per-step
 *    confidence of a delta given the signature.
 *  - Lookahead: from the current signature, repeatedly take the
 *    highest-confidence delta, multiply it into the path confidence,
 *    and propose the resulting page — speculatively advancing the
 *    signature as if the prediction were a real touch — until the
 *    product drops below the threshold or the configured degree is
 *    reached.
 *
 * Deterministic by construction: fixed-seedless integer state, ties
 * in the pattern table break toward the lowest slot index.
 *
 * The policy is pure prediction logic. The Iommu owns every safety
 * gate — idle-walker-only issue, IOMMU TLB probes, the in-flight
 * dedup filter, the GMMU residency + pin gate, and the functional
 * mapped-page check — so a prediction can never perturb demand
 * traffic or raise a far fault.
 */

#ifndef GPUWALK_IOMMU_PREFETCH_SPP_PREFETCHER_HH
#define GPUWALK_IOMMU_PREFETCH_SPP_PREFETCHER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "sim/flat_map.hh"
#include "tlb/translation.hh"

namespace gpuwalk::iommu {

/** The available translation prefetching policies. */
enum class PrefetchKind : std::uint8_t
{
    Off = 0, ///< no speculative walks
    Spp,     ///< signature-path lookahead (per-wavefront deltas)
};

/** Printable name of @p kind ("off" / "spp"). */
const char *toString(PrefetchKind kind);

/** Parses a policy name; fatal() on unknown names. */
PrefetchKind prefetchKindFromString(const std::string &name);

/** Prefetcher selection and SPP tuning knobs. */
struct PrefetchConfig
{
    PrefetchKind kind = PrefetchKind::Off;

    /** Max candidates a single trigger may propose (the lookahead
     *  depth). */
    unsigned degree = 4;

    /** SPP: bits in the compressed delta-history signature. */
    unsigned sppSignatureBits = 12;

    /** SPP: signature shift per folded-in delta. */
    unsigned sppSignatureShift = 3;

    /** SPP: direct-mapped pattern-table entries. */
    unsigned sppPatternEntries = 512;

    /** SPP: delta slots tracked per pattern entry. */
    static constexpr unsigned sppDeltasPerEntry = 4;

    /** SPP: stop chaining when the path confidence product drops
     *  below this. */
    double sppConfidenceThreshold = 0.25;

    /** SPP: |page delta| clamp — larger jumps reset the stream
     *  instead of polluting the pattern table. */
    std::int64_t sppMaxDelta = 256;
};

/** One proposed speculative walk. */
struct PrefetchCandidate
{
    mem::Addr vaPage = 0;

    /** Path confidence in [0, 1]. */
    double confidence = 1.0;
};

/** Per-run prefetcher accounting for RunStats / report JSON. */
struct PrefetchSummary
{
    bool enabled = false;
    std::string policy;          ///< toString(kind)
    std::uint64_t issued = 0;    ///< speculative walks started
    std::uint64_t completed = 0; ///< speculative walks that filled TLBs
    std::uint64_t useful = 0;    ///< demand TLB hits on prefetched pages
    std::uint64_t evictedUnused = 0; ///< demand re-walked a prefetched page
    std::uint64_t unusedAtEnd = 0;   ///< filled but never demanded

    double accuracy = 0.0;  ///< useful / completed
    double coverage = 0.0;  ///< useful / (useful + demand walks)
    double pollution = 0.0; ///< evictedUnused / completed
};

/** Per-wavefront signature-path prediction. */
class SppPrefetcher
{
  public:
    explicit SppPrefetcher(const PrefetchConfig &cfg);

    /**
     * Observes one demand touch of @p va_page — a demand walk
     * completion, or a demand TLB hit (so a correctly predicted
     * stream keeps training even when prefetching removes its walks)
     * — and appends prefetch candidates to @p out in priority order.
     */
    void onDemandTouch(tlb::ContextId ctx, std::uint32_t wavefront,
                       mem::Addr va_page,
                       std::vector<PrefetchCandidate> &out);

    /** Test accessors. */
    std::uint64_t trainedDeltas() const { return trainedDeltas_; }
    std::uint64_t streamResets() const { return streamResets_; }

  private:
    /** One (ctx, wavefront) stream. */
    struct Stream
    {
        std::uint64_t lastPageNo = 0;
        std::uint32_t signature = 0;
    };

    /** One learned delta under a signature. */
    struct DeltaSlot
    {
        std::int64_t delta = 0;
        std::uint32_t count = 0;
    };

    /** Direct-mapped, signature-tagged pattern entry. */
    struct PatternEntry
    {
        std::uint32_t tag = 0;
        bool valid = false;
        std::uint32_t total = 0;
        std::array<DeltaSlot, PrefetchConfig::sppDeltasPerEntry> slots;
    };

    std::uint32_t nextSignature(std::uint32_t sig,
                                std::int64_t delta) const;
    PatternEntry &entryFor(std::uint32_t sig);
    void train(std::uint32_t sig, std::int64_t delta);
    void lookahead(std::uint32_t sig, std::uint64_t page_no,
                   std::vector<PrefetchCandidate> &out) const;

    PrefetchConfig cfg_;
    std::uint32_t sigMask_ = 0;

    /** Stream table keyed by ctx << 32 | wavefront. */
    sim::FlatMap<std::uint64_t, Stream> streams_;
    std::vector<PatternEntry> patterns_;

    std::uint64_t trainedDeltas_ = 0;
    std::uint64_t streamResets_ = 0;
};

} // namespace gpuwalk::iommu

#endif // GPUWALK_IOMMU_PREFETCH_SPP_PREFETCHER_HH
